// Lockd serves the hwtwbg lock manager over TCP using the lockservice
// protocol: BEGIN / LOCK / LOCKALL / TRYLOCK / COMMIT / ABORT / STATS /
// TAIL / PING / QUIT, with a background H/W-TWBG deadlock detector. The
// lock table and the flight recorder are read over HTTP, on the debug
// listener that -debug-addr starts (/locktable, /journal.bin). Try it
// with netcat and curl:
//
//	lockd -addr :7654 -debug-addr :7655 &
//	printf 'BEGIN\nLOCK accounts/7 X\nCOMMIT\nQUIT\n' | nc localhost 7654
//	curl localhost:7655/locktable
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hwtwbg"
	"hwtwbg/lockservice"
)

// debugRoutes names what lockservice.DebugHandler serves.
const debugRoutes = "/metrics, /snapshot, /activations, /journal.bin, /twbg.dot, /locktable, /debug/pprof"

// errUsage reports a bad command line, which run has already explained
// on the flag set's output.
var errUsage = errors.New("usage")

func main() {
	stop := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		close(stop)
	}()
	switch err := run(os.Args[1:], os.Stdout, stop); {
	case errors.Is(err, errUsage):
		os.Exit(2)
	case err != nil:
		fmt.Fprintf(os.Stderr, "lockd: %v\n", err)
		os.Exit(1)
	}
}

// run parses args, serves until stop closes and then shuts down,
// narrating to w: the banner with the address it listens on, each
// deadlock victim, and the shutdown.
func run(args []string, w io.Writer, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("lockd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7654", "listen address")
	debugAddr := fs.String("debug-addr", "", "debug HTTP listen address serving "+debugRoutes+" (empty = disabled)")
	period := fs.Duration("period", 20*time.Millisecond, "deadlock detection period")
	noTDR2 := fs.Bool("no-tdr2", false, "resolve deadlocks by abort only (disable TDR-2)")
	shards := fs.Int("shards", 0, "lock-table shards, rounded up to a power of two (0 = derive from GOMAXPROCS)")
	scheduling := fs.String("scheduling", hwtwbg.SchedulingFixed, "detection scheduling policy: fixed (every -period, the paper's) or costmodel (journal-fed cost model derives the cost-minimizing period)")
	maxPeriod := fs.Duration("max-period", 0, "cap for the costmodel period (0 = 8x period)")
	journalSize := fs.Int("journal", 0, "flight-recorder capacity in records per ring (0 = default 4096, negative = disabled)")
	switch err := fs.Parse(args); {
	case errors.Is(err, flag.ErrHelp):
		return nil
	case err != nil:
		return errUsage
	}

	switch *scheduling {
	case hwtwbg.SchedulingFixed, hwtwbg.SchedulingCostModel:
	default:
		fmt.Fprintf(fs.Output(), "lockd: unknown -scheduling %q (want fixed or costmodel)\n", *scheduling)
		fs.Usage()
		return errUsage
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := lockservice.Serve(ln, hwtwbg.Options{
		Period:      *period,
		Scheduling:  *scheduling,
		MaxPeriod:   *maxPeriod,
		Shards:      *shards,
		DisableTDR2: *noTDR2,
		JournalSize: *journalSize,
		OnVictim: func(id hwtwbg.TxnID) {
			fmt.Fprintf(w, "lockd: aborted %v to break a deadlock\n", id)
		},
	})
	fmt.Fprintf(w, "lockd: serving on %s (%s scheduling, detection every %v, %d shards)\n",
		srv.Addr(), *scheduling, *period, srv.Manager().NumShards())

	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			srv.Close()
			return fmt.Errorf("debug listener: %w", err)
		}
		defer dln.Close()
		go http.Serve(dln, lockservice.DebugHandler(srv.Manager()))
		fmt.Fprintf(w, "lockd: debug server on http://%s (%s)\n", dln.Addr(), debugRoutes)
	}

	<-stop
	fmt.Fprintln(w, "lockd: shutting down")
	if err := srv.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	return nil
}
