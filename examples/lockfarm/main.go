// Lockfarm: the network lock service end to end. It starts an
// in-process lockd server on a loopback port, then runs several worker
// processes' worth of TCP clients that contend for shared resources
// with crossing lock orders. The server's background H/W-TWBG detector
// breaks the resulting deadlocks; wounded clients see ABORTED and
// retry; everyone finishes and the server reports its statistics.
//
//	go run ./examples/lockfarm
package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"

	"hwtwbg"
	"hwtwbg/lockservice"
)

const (
	workers  = 6
	jobsEach = 25
)

var resources = []string{"printer", "scanner", "plotter", "tape"}

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run serves a lock service, lets the workers finish every job, and
// reports to w how many jobs committed, how many deadlock retries the
// clients saw and what the server's detector did. It returns the errors
// the workers met that were not deadlock aborts.
func run(w io.Writer) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := lockservice.Serve(ln, hwtwbg.Options{Period: 3 * time.Millisecond})
	defer srv.Close()
	fmt.Fprintf(w, "lockd serving on %s\n", srv.Addr())

	var wg sync.WaitGroup
	var mu sync.Mutex
	var errs []error
	committed, retries := 0, 0
	for id := 0; id < workers; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, r, err := worker(srv.Addr().String(), rand.New(rand.NewSource(int64(id+1))))
			mu.Lock()
			defer mu.Unlock()
			committed += c
			retries += r
			errs = append(errs, err)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}

	c, err := lockservice.Dial(srv.Addr().String())
	if err != nil {
		return err
	}
	defer c.Close()
	st, err := c.Stats()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "committed %d jobs across %d workers with %d deadlock retries\n",
		committed, workers, retries)
	fmt.Fprintf(w, "server detector: %d runs, %d cycles found, %d aborts, %d TDR-2 repositionings\n",
		st.Runs, st.CyclesSearched, st.Aborted, st.Repositioned)
	return nil
}

// worker runs jobsEach jobs on its own connection. Each job locks two
// devices in a random order — guaranteed deadlock fodder — and retries
// after a jittered backoff when the detector picks it as a victim. It
// returns the jobs committed and the ABORTED replies seen.
func worker(addr string, rng *rand.Rand) (committed, retries int, err error) {
	c, err := lockservice.Dial(addr)
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	for j := 0; j < jobsEach; j++ {
		a := resources[rng.Intn(len(resources))]
		b := resources[rng.Intn(len(resources))]
		for b == a {
			b = resources[rng.Intn(len(resources))]
		}
		for attempt := 1; ; attempt++ {
			if _, err := c.Begin(); err != nil {
				return committed, retries, err
			}
			err := c.Lock(a, hwtwbg.X)
			if err == nil {
				time.Sleep(time.Duration(rng.Intn(500)) * time.Microsecond)
				err = c.Lock(b, hwtwbg.X)
			}
			if errors.Is(err, lockservice.ErrAborted) {
				retries++
				time.Sleep(time.Duration(rng.Intn(attempt*1000)+200) * time.Microsecond)
				continue
			}
			if err == nil {
				err = c.Commit()
			}
			if err != nil {
				return committed, retries, err
			}
			committed++
			break
		}
	}
	return committed, retries, nil
}
