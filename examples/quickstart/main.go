// Quickstart: two goroutines deadlock on a pair of resources; the
// background H/W-TWBG detector picks a victim, the victim retries, and
// both finish.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"hwtwbg"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run makes the two transfers, narrates them to w, and returns the
// first error of a transfer that did not commit.
func run(w io.Writer) error {
	var mu sync.Mutex // the transfers and the detector narrate concurrently
	say := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		fmt.Fprintf(w, format, args...)
	}
	lm := hwtwbg.Open(hwtwbg.Options{
		Period:   5 * time.Millisecond,
		OnVictim: func(id hwtwbg.TxnID) { say("  detector: aborted %v to break a deadlock\n", id) },
	})
	defer lm.Close()

	// transfer locks `from` then `to` — opposite orders deadlock. Do
	// retries the victim on a fresh transaction.
	transfer := func(name string, from, to hwtwbg.ResourceID) error {
		attempt := 0
		err := lm.Do(context.Background(), func(t *hwtwbg.Txn) error {
			attempt++
			err := t.Lock(context.Background(), from, hwtwbg.X)
			if err == nil {
				time.Sleep(2 * time.Millisecond) // let the lock orders cross
				err = t.Lock(context.Background(), to, hwtwbg.X)
			}
			if errors.Is(err, hwtwbg.ErrAborted) {
				say("  %s: chosen as deadlock victim on attempt %d; retrying\n", name, attempt)
			}
			if err != nil {
				return err
			}
			say("  %s: holds %v and %v, committing\n", name, from, to)
			return nil
		})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}

	say("starting two transfers with crossing lock orders...\n")
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() { defer wg.Done(); errs[0] = transfer("alice->bob", "acct/alice", "acct/bob") }()
	go func() { defer wg.Done(); errs[1] = transfer("bob->alice", "acct/bob", "acct/alice") }()
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}

	st := lm.MetricsSnapshot().Detector
	say("done. detector ran %d times, found %d cycle(s), aborted %d, repositioned %d.\n",
		st.Runs, st.CyclesSearched, st.Aborted, st.Repositioned)
	return nil
}
