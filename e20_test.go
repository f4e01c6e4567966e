package hwtwbg

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestExample51PhaseReport drives Example 5.1 (Figure 5.2: nested
// cycles {T1,T2,T3} and {T1,T2}, a victim salvaged at Step 3) through
// the public API and checks that the activation report decomposes the
// stop-the-world pause into the documented phases. Run with -v to see
// the report EXPERIMENTS.md E20 quotes.
func TestExample51PhaseReport(t *testing.T) {
	m := Open(Options{})
	defer m.Close()
	ctx := context.Background()

	t1, t2, t3 := m.Begin(), m.Begin(), m.Begin()
	// The paper prices T1 at 6, T2 at 4 and T3 at 1; the manager prices
	// a victim at the locks it holds + 1. T3 holds one lock, so it costs
	// 2, and T2 must cost more than 4 for aborting T3 to stay cheaper
	// than repositioning T2 behind T3 (priced at half of T2). T1 takes
	// five locks besides R1 and T2 three besides R2: 7, 5 and 2 make
	// every choice the paper's costs make.
	for i, tx := range []*Txn{t1, t1, t1, t1, t1, t2, t2, t2} {
		if err := tx.Lock(ctx, ResourceID(fmt.Sprintf("own%d", i)), X); err != nil {
			t.Fatal(err)
		}
	}
	if err := t1.Lock(ctx, "R1", S); err != nil {
		t.Fatal(err)
	}
	if err := t2.Lock(ctx, "R2", S); err != nil {
		t.Fatal(err)
	}
	if err := t3.Lock(ctx, "R2", S); err != nil {
		t.Fatal(err)
	}
	errs := map[TxnID]chan error{
		t1.ID(): make(chan error, 1),
		t2.ID(): make(chan error, 1),
		t3.ID(): make(chan error, 1),
	}
	go func() { errs[t2.ID()] <- t2.Lock(ctx, "R1", X) }()
	waitBlocked(t, m, t2.ID())
	go func() { errs[t3.ID()] <- t3.Lock(ctx, "R1", S) }()
	waitBlocked(t, m, t3.ID())
	go func() { errs[t1.ID()] <- t1.Lock(ctx, "R2", X) }()
	waitBlocked(t, m, t1.ID())

	st := m.Detect()
	// The paper's resolution: T3 (the cheapest) picked for the big
	// cycle, T2 (cheaper than T1) for {T1,T2}; Step 3 aborts T2 first,
	// which unblocks T3 — T3 is salvaged and only T2 dies.
	if st.Aborted != 1 || st.Salvaged != 1 {
		t.Fatalf("stats = %+v, want 1 abort and 1 salvage\n%s", st, m.Snapshot())
	}
	if err := <-errs[t2.ID()]; !errors.Is(err, ErrAborted) {
		t.Fatalf("t2 err = %v, want ErrAborted", err)
	}
	if err := <-errs[t3.ID()]; err != nil {
		t.Fatalf("salvaged t3 err = %v", err)
	}

	reports, total := m.Activations()
	if total != 1 || len(reports) != 1 {
		t.Fatalf("activations: %d/%d", len(reports), total)
	}
	rep := reports[0]
	if rep.Aborted != 1 || rep.Salvaged != 1 || rep.CyclesSearched != 2 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Total < rep.Build+rep.Search+rep.Resolve {
		t.Fatalf("phase times exceed the total: %+v", rep)
	}
	t.Logf("activation report: %v", rep)
	t.Logf("phases: acquire=%v build=%v search=%v resolve=%v wake=%v total=%v",
		rep.Acquire, rep.Build, rep.Search, rep.Resolve, rep.Wake, rep.Total)

	// Unwind: t3 commits, granting t1's X on R2.
	if err := t3.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-errs[t1.ID()]; err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestCrossShardStressHistograms runs a contended multi-shard workload
// under the background detector and sanity-checks the aggregated
// histograms; with -v it prints the wait-latency and queue-depth
// distributions plus the cumulative phase breakdown (the E20 stress
// numbers).
func TestCrossShardStressHistograms(t *testing.T) {
	m := Open(Options{Shards: 8, Period: time.Millisecond})
	defer m.Close()
	const (
		workers = 8
		rounds  = 200
		hotKeys = 6
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			ctx := context.Background()
			for i := 0; i < rounds; i++ {
				tx := m.Begin()
				// Two hot resources in random order: plenty of blocking
				// and a steady supply of real deadlocks for the detector.
				a := ResourceID(fmt.Sprintf("hot%d", rng.Intn(hotKeys)))
				b := ResourceID(fmt.Sprintf("hot%d", rng.Intn(hotKeys)))
				if err := tx.Lock(ctx, a, X); err != nil {
					tx.Abort()
					continue
				}
				// Yield while holding the first lock so workers interleave
				// even on a single hardware thread.
				runtime.Gosched()
				if err := tx.Lock(ctx, b, X); err != nil {
					tx.Abort()
					continue
				}
				tx.Commit()
			}
		}(int64(w + 1))
	}
	wg.Wait()

	snap := m.MetricsSnapshot()
	if snap.Total.Blocked == 0 {
		t.Fatal("stress produced no blocking")
	}
	if snap.Detector.Runs == 0 {
		t.Fatal("background detector never ran")
	}
	if snap.Total.WaitNs.Count == 0 || snap.Total.QueueDepth.Count != snap.Total.Blocked {
		t.Fatalf("histograms inconsistent: wait=%d queue=%d blocked=%d",
			snap.Total.WaitNs.Count, snap.Total.QueueDepth.Count, snap.Total.Blocked)
	}
	ph := snap.Phases
	total := ph.Acquire + ph.Copy + ph.Build + ph.Search + ph.Resolve + ph.Validate + ph.Wake
	if snap.Detector.Runs > 0 && total <= 0 {
		t.Fatalf("phase totals empty after %d runs", snap.Detector.Runs)
	}
	t.Logf("detector: %+v", snap.Detector)
	t.Logf("phase totals over %d runs: acquire=%v copy=%v build=%v search=%v resolve=%v validate=%v wake=%v",
		snap.Detector.Runs, ph.Acquire, ph.Copy, ph.Build, ph.Search, ph.Resolve, ph.Validate, ph.Wake)
	t.Logf("lock wait (ns):\n%v", snap.Total.WaitNs)
	t.Logf("queue depth at enqueue:\n%v", snap.Total.QueueDepth)
}
