// Lockd serves the hwtwbg lock manager over TCP using the lockservice
// protocol: BEGIN / LOCK / LOCKALL / TRYLOCK / COMMIT / ABORT / STATS /
// SNAPSHOT / DUMP / TAIL / PING / QUIT, with a background H/W-TWBG
// deadlock detector. Try it with netcat:
//
//	lockd -addr :7654 &
//	printf 'BEGIN\nLOCK accounts/7 X\nCOMMIT\nQUIT\n' | nc localhost 7654
package main

import (
	"flag"
	"fmt"
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
const debugRoutes = "/metrics, /snapshot, /activations, /journal.bin, /twbg.dot, /locktable, /debug/vars, /debug/pprof"

func main() {
	addr := flag.String("addr", "127.0.0.1:7654", "listen address")
	debugAddr := flag.String("debug-addr", "", "debug HTTP listen address serving "+debugRoutes+" (empty = disabled)")
	period := flag.Duration("period", 20*time.Millisecond, "deadlock detection period")
	noTDR2 := flag.Bool("no-tdr2", false, "resolve deadlocks by abort only (disable TDR-2)")
	shards := flag.Int("shards", 0, "lock-table shards, rounded up to a power of two (0 = derive from GOMAXPROCS)")
	scheduling := flag.String("scheduling", hwtwbg.SchedulingFixed, "detection scheduling policy: fixed (every -period, the paper's) or costmodel (journal-fed cost model derives the cost-minimizing period)")
	maxPeriod := flag.Duration("max-period", 0, "cap for the costmodel period (0 = 8x period)")
	journalSize := flag.Int("journal", 0, "flight-recorder capacity in records per ring (0 = default 4096, negative = disabled)")
	flag.Parse()

	switch *scheduling {
	case hwtwbg.SchedulingFixed, hwtwbg.SchedulingCostModel:
	default:
		fmt.Fprintf(os.Stderr, "lockd: unknown -scheduling %q (want fixed or costmodel)\n", *scheduling)
		flag.Usage()
		os.Exit(2)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lockd: %v\n", err)
		os.Exit(1)
	}
	srv := lockservice.Serve(ln, hwtwbg.Options{
		Period:      *period,
		Scheduling:  *scheduling,
		MaxPeriod:   *maxPeriod,
		Shards:      *shards,
		DisableTDR2: *noTDR2,
		JournalSize: *journalSize,
		OnVictim: func(id hwtwbg.TxnID) {
			fmt.Printf("lockd: aborted %v to break a deadlock\n", id)
		},
	})
	fmt.Printf("lockd: serving on %s (%s scheduling, detection every %v, %d shards)\n",
		srv.Addr(), *scheduling, *period, srv.Manager().NumShards())

	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lockd: debug listener: %v\n", err)
			srv.Close()
			os.Exit(1)
		}
		go http.Serve(dln, lockservice.DebugHandler(srv.Manager()))
		fmt.Printf("lockd: debug server on http://%s (%s)\n", dln.Addr(), debugRoutes)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("lockd: shutting down")
	if err := srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "lockd: close: %v\n", err)
	}
}
