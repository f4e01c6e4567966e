package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"hwtwbg"
	"hwtwbg/internal/detect"
	"hwtwbg/internal/lock"
	"hwtwbg/internal/synth"
	"hwtwbg/internal/table"
	"hwtwbg/internal/twbg"
	"hwtwbg/journal"
	"hwtwbg/kv"
	"hwtwbg/lockservice"
)

// The micro loops price one layer at a time from outside: a single
// goroutine (two for the hand-off), fixed operation counts, the synthetic
// topologies of internal/synth. Each timing is the best of three repeats,
// which on a shared host is the least disturbed one.

var sink int // keeps results alive so loops are not optimised away

func bestOf3(ops int, f func()) (nsPerOp float64) {
	for i := 0; i < 3; i++ {
		start := time.Now()
		f()
		if d := float64(time.Since(start).Nanoseconds()) / float64(ops); i == 0 || d < nsPerOp {
			nsPerOp = d
		}
	}
	return nsPerOp
}

func allocsPer(ops int, f func()) float64 {
	runtime.GC()
	before := mallocs()
	f()
	return float64(mallocs()-before) / float64(ops)
}

func runLayers(m map[string]float64) error {
	microLock(m)
	microTable(m)
	microGraph(m)
	microManager(m)
	microJournal(m)
	if err := microKV(m); err != nil {
		return err
	}
	return microWire(m)
}

func microLock(m map[string]float64) {
	modes := []lock.Mode{lock.NL, lock.IS, lock.IX, lock.SIX, lock.S, lock.X}
	const reps = 50_000
	m["lock.compconv_ns"] = bestOf3(reps*len(modes)*len(modes), func() {
		n := 0
		for r := 0; r < reps; r++ {
			for _, a := range modes {
				for _, b := range modes {
					if lock.Comp(a, b) {
						n++
					}
					n += int(lock.Conv(a, b))
				}
			}
		}
		sink += n
	})
}

func resources(prefix string, n int) []table.ResourceID {
	ids := make([]table.ResourceID, n)
	for i := range ids {
		ids[i] = table.ResourceID(fmt.Sprintf("%s/%05d", prefix, i))
	}
	return ids
}

func microTable(m map[string]float64) {
	const n = 200_000
	ids := resources("r", 64)
	tb := table.New()
	grantRelease := func() {
		for i := 0; i < n; i++ {
			tb.RequestEx(1, ids[i&63], lock.X)
			tb.Release(1)
		}
	}
	m["table.grant_release_ns"] = bestOf3(n, grantRelease)
	m["table.allocs_per_request"] = allocsPer(n, grantRelease)

	// Two transactions alternate on one resource: each request conflicts
	// and queues, each release grants the waiter.
	tb = table.New()
	tb.RequestEx(1, ids[0], lock.X)
	m["table.block_handoff_ns"] = bestOf3(n, func() {
		holder, waiter := table.TxnID(1), table.TxnID(2)
		for i := 0; i < n; i++ {
			tb.RequestEx(waiter, ids[0], lock.X)
			grants, _ := tb.Release(holder)
			sink += len(grants)
			holder, waiter = waiter, holder
		}
	})

	// A 2048-resource shard, one holder each: what a detector activation
	// copies per dirty shard, and what it checks per clean one.
	const shardRes, copies = 2048, 200
	big := table.New()
	for i, id := range resources("s", shardRes) {
		big.RequestEx(table.TxnID(i/4+1), id, lock.S)
	}
	snap := table.NewSnapshot()
	epoch := uint64(0)
	m["table.copyshard_us"] = bestOf3(copies, func() {
		for i := 0; i < copies; i++ {
			epoch++
			snap.BeginRound(1)
			snap.CopyShard(big, 0, epoch)
			snap.FinishShard(0)
			snap.MergeShards([]int{0})
		}
	}) / 1e3
	m["table.shardclean_ns"] = bestOf3(n, func() {
		clean := 0
		for i := 0; i < n; i++ {
			if snap.ShardClean(0, epoch) {
				clean++
			}
		}
		sink += clean
	})
}

func microGraph(m map[string]float64) {
	tiles := synth.Example41Tiles(32)
	const builds = 200
	var edges int
	m["twbg.build_us"] = bestOf3(builds, func() {
		for i := 0; i < builds; i++ {
			edges = twbg.Build(tiles).NumEdges()
		}
	}) / 1e3
	m["twbg.edges"] = float64(edges)

	// The detector mutates the table it resolves, so every run gets a
	// fresh topology, built outside the timer.
	run := func(build func() *table.Table, runs int) (us float64, visits int) {
		var best time.Duration
		for i := 0; i < runs; i++ {
			d := detect.New(build(), detect.Config{})
			start := time.Now()
			res := d.Run()
			if el := time.Since(start); i == 0 || el < best {
				best = el
			}
			visits = res.EdgeVisits
		}
		return float64(best.Nanoseconds()) / 1e3, visits
	}
	m["detect.run_us.chain1600"], _ = run(func() *table.Table { return synth.Chain(1600) }, 20)
	var visits int
	m["detect.run_us.rings80"], visits = run(func() *table.Table { return synth.Rings(80, 4) }, 20)
	m["detect.edge_visits.rings80"] = float64(visits)
	m["detect.run_us.tiles32"], _ = run(func() *table.Table { return synth.Example41Tiles(32) }, 20)

	const allocRuns = 50
	dets := make([]*detect.Detector, allocRuns)
	for i := range dets {
		dets[i] = detect.New(synth.Chain(100), detect.Config{})
	}
	m["detect.allocs_per_run.chain100"] = allocsPer(allocRuns, func() {
		for _, d := range dets {
			sink += d.Run().Vertices
		}
	})
}

func microManager(m map[string]float64) {
	ctx := context.Background()
	lm := hwtwbg.Open(hwtwbg.Options{})
	defer lm.Close()
	ids := resources("m", 64)
	const n = 100_000
	lockCommit := func() {
		for i := 0; i < n; i++ {
			t := lm.Begin()
			t.Lock(ctx, ids[i&63], hwtwbg.X)
			t.Commit()
			t.Recycle()
		}
	}
	m["manager.lock_commit_ns"] = bestOf3(n, lockCommit)
	m["manager.allocs_per_lock"] = allocsPer(n, lockCommit)

	reqs := make([]hwtwbg.LockRequest, 8)
	for i := range reqs {
		reqs[i] = hwtwbg.LockRequest{Resource: ids[i], Mode: hwtwbg.S}
	}
	m["manager.lockall8_ns"] = bestOf3(n/4, func() {
		for i := 0; i < n/4; i++ {
			t := lm.Begin()
			t.LockAll(ctx, reqs)
			t.Commit()
			t.Recycle()
		}
	})
	m["manager.handoff_us"] = handoff(lm) / 1e3
}

// handoff has two goroutines alternate on one X lock: the holder commits
// only once the other is queued behind it, and the sample is the time from
// that Commit call to the waiter's Lock returning.
func handoff(lm *hwtwbg.Manager) (medianNs float64) {
	const turns = 4000
	ctx := context.Background()
	var waiting [2]atomic.Int64  // the transaction id each side is about to block with
	var released [2]atomic.Int64 // when each side last called Commit, ns since start
	start := time.Now()
	samples := make([][]int64, 2)
	done := make(chan struct{})
	held := make(chan struct{}) // closed once side 0 holds the lock, so the order of turns is fixed
	side := func(me int) {
		defer func() { done <- struct{}{} }()
		other := 1 - me
		if me == 1 {
			<-held
		}
		for i := 0; i < turns; i++ {
			t := lm.Begin()
			waiting[me].Store(int64(t.ID()))
			t.Lock(ctx, "handoff", hwtwbg.X)
			got := int64(time.Since(start))
			if me == 0 && i == 0 {
				close(held)
			}
			if rel := released[other].Load(); rel > 0 {
				samples[me] = append(samples[me], got-rel)
			}
			if i < turns-1 || me == 0 {
				// Hold until the other side is parked behind this lock.
				for id := waiting[other].Load(); id == 0 || !lm.Blocked(hwtwbg.TxnID(id)); id = waiting[other].Load() {
					runtime.Gosched()
				}
			}
			waiting[me].Store(0)
			released[me].Store(int64(time.Since(start)))
			t.Commit()
			t.Recycle()
		}
	}
	go side(0)
	go side(1)
	<-done
	<-done
	return percentile(append(samples[0], samples[1]...), 0.50)
}

func microJournal(m map[string]float64) {
	const n = 1_000_000
	ring := journal.NewRing(4096, 0)
	rec := journal.Record{Txn: 7, Kind: journal.KindGrant, Mode: uint8(lock.X)}
	rec.SetResource("accounts/42")
	m["journal.emit_ns"] = bestOf3(n, func() {
		for i := 0; i < n; i++ {
			rec.TS = int64(i)
			ring.Emit(&rec)
		}
	})
	// Full rings of the default size, one per default shard plus control.
	j := journal.New(runtime.GOMAXPROCS(0), 4096)
	for r := 0; r < j.NumRings(); r++ {
		for i := 0; i < 4096; i++ {
			rec.TS = int64(i)
			j.Ring(r).Emit(&rec)
		}
	}
	const snaps = 50
	m["journal.snapshot_us"] = bestOf3(snaps, func() {
		for i := 0; i < snaps; i++ {
			sink += len(j.Snapshot())
		}
	}) / 1e3
}

func microKV(m map[string]float64) error {
	ctx := context.Background()
	store := kv.Open(kv.Options{})
	defer store.Close()
	keys := make([]string, 1024)
	batch := make(map[string]string, len(keys))
	for i := range keys {
		keys[i] = fmt.Sprintf("k%04d", i)
		batch[keys[i]] = "init"
	}
	if err := store.Update(ctx, func(tx *kv.Tx) error { return tx.PutAll(ctx, batch) }); err != nil {
		return fmt.Errorf("kv layer preload: %w", err)
	}
	const n = 50_000
	var failed error
	m["kv.get_ns"] = bestOf3(n, func() {
		for i := 0; i < n; i++ {
			key := keys[i&1023]
			if err := store.View(ctx, func(tx *kv.Tx) error { _, _, err := tx.Get(ctx, key); return err }); err != nil {
				failed = err
			}
		}
	})
	m["kv.put_commit_ns"] = bestOf3(n, func() {
		for i := 0; i < n; i++ {
			key := keys[i&1023]
			if err := store.Update(ctx, func(tx *kv.Tx) error { return tx.Put(ctx, key, "v") }); err != nil {
				failed = err
			}
		}
	})
	if failed != nil {
		return fmt.Errorf("kv layer: %w", failed)
	}
	return nil
}

// microWire prices single verbs on one connection as multiples of a
// one-connection echo round trip taken just before and after each loop.
func microWire(m map[string]float64) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("lockservice layer: %w", err)
	}
	srv := lockservice.Serve(ln, hwtwbg.Options{Period: serverPeriod})
	defer srv.Close()
	cl, err := lockservice.Dial(ln.Addr().String())
	if err != nil {
		return fmt.Errorf("lockservice layer: %w", err)
	}
	defer cl.Close()
	echo, err := newEchoRef(1, len("LOCK l/00000 X\n"))
	if err != nil {
		return err
	}
	defer echo.close()

	const n = 3000
	ids := resources("l", n)
	var failed error
	note := func(err error) {
		if err != nil {
			failed = err
		}
	}
	// bracket runs f between two echo bursts and returns the echo round
	// trip they measured, in seconds.
	bracket := func(f func()) float64 {
		trips := func() time.Duration {
			start := time.Now()
			for i := 0; i < n; i++ {
				note(echo.trip(0))
			}
			return time.Since(start)
		}
		before := trips()
		f()
		return (before + trips()).Seconds() / (2 * n)
	}
	var inVerb time.Duration
	echoRTT := bracket(func() {
		start := time.Now()
		for i := 0; i < n; i++ {
			note(cl.Ping())
		}
		inVerb = time.Since(start)
	})
	m["lockservice.ping_rtt_x"] = inVerb.Seconds() / n / echoRTT
	m["lockservice.allocs_per_rtt"] = allocsPer(n, func() {
		for i := 0; i < n; i++ {
			note(cl.Ping())
		}
	})
	echoRTT = bracket(func() {
		_, err := cl.Begin()
		note(err)
		start := time.Now()
		for i := 0; i < n; i++ {
			note(cl.Lock(string(ids[i]), hwtwbg.X))
		}
		inVerb = time.Since(start)
		note(cl.Commit())
	})
	m["lockservice.lock_rtt_x"] = inVerb.Seconds() / n / echoRTT
	reqs := make([]hwtwbg.LockRequest, 8)
	var inLockAll, inCommit time.Duration
	echoRTT = bracket(func() {
		for i := 0; i < n; i++ {
			for j := range reqs {
				reqs[j] = hwtwbg.LockRequest{Resource: ids[(i+j)%n], Mode: hwtwbg.S}
			}
			_, err := cl.Begin()
			note(err)
			t0 := time.Now()
			note(cl.LockAll(reqs))
			t1 := time.Now()
			note(cl.Commit())
			inLockAll += t1.Sub(t0)
			inCommit += time.Since(t1)
		}
	})
	m["lockservice.lockall8_rtt_x"] = inLockAll.Seconds() / n / echoRTT
	m["lockservice.commit_rtt_x"] = inCommit.Seconds() / n / echoRTT // each releases eight locks
	if failed != nil {
		return fmt.Errorf("lockservice layer: %w", failed)
	}
	return nil
}
