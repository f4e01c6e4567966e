package hwtwbg

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"
)

// e25Run drives the E25 churn-skewed workload on one manager: every
// shard pinned with perShard long-held resources, waitersPerShard of
// them with a standing waiter (the copy-out's work in every shard),
// then rounds of short-transaction churn confined to shard 0, each
// round closed by one manual activation. The full-copy leg forgets the
// snapshot before each copy, as the detectFullCopy oracle does. Each
// activation's copy-out is taken by copySnapshot just before Detect,
// which then finds every shard clean and runs on that copy, so its
// time under the shard mutexes — what a skipped shard saves — is
// measured apart from the dirty scan and the merge, which both legs
// pay alike. It returns those times, the shard copy/skip totals, and
// a decision transcript for A/B comparison.
func e25Run(t *testing.T, full bool, rounds int) (holds []time.Duration, copied, skipped int, decisions string) {
	const (
		shards          = 32
		perShard        = 16
		waitersPerShard = 4
	)
	m := Open(Options{Shards: shards})
	var waiters sync.WaitGroup
	defer waiters.Wait()
	defer m.Close() // aborts the standing waiters
	ctx := context.Background()

	e25Pin(t, m, shards, perShard)
	for i := 0; i < shards; i++ {
		for j := 0; j < waitersPerShard; j++ {
			r, tx := shardResource(t, m, uint32(i), j), m.Begin()
			waiters.Add(1)
			go func() {
				defer waiters.Done()
				tx.Lock(ctx, r, X) // queues behind pin j's S until Close
			}()
			waitBlocked(t, m, tx.ID())
		}
	}
	m.Detect() // warm-up: both legs pay one full copy here, outside the measurement

	for round := 0; round < rounds; round++ {
		for i := 0; i < 4; i++ {
			r := shardResource(t, m, 0, 1000+round*4+i)
			tx := m.Begin()
			if err := tx.Lock(ctx, r, X); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			tx.Recycle()
		}
		m.detMu.Lock()
		if full {
			m.snap.Reset()
		}
		cp := m.copySnapshot()
		m.detMu.Unlock()
		st := m.Detect()
		if st.ShardsCopied != 0 {
			t.Fatalf("round %d: the activation recopied %d shards, not the measured copy", round, st.ShardsCopied)
		}
		decisions += fmt.Sprintf("%d/%d/%d;", st.CyclesSearched, st.Aborted, st.Repositioned)
		holds = append(holds, cp.hold)
		copied += cp.dirty
		skipped += cp.skipped
	}
	return holds, copied, skipped, decisions
}

// e25Pin gives every shard perShard long-held S locks, the j-th of
// each shard held by pinned transaction j.
func e25Pin(t testing.TB, m *Manager, shards, perShard int) {
	t.Helper()
	ctx := context.Background()
	for j := 0; j < perShard; j++ {
		pin := m.Begin()
		for i := 0; i < shards; i++ {
			if err := pin.Lock(ctx, shardResource(t, m, uint32(i), j), S); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// sumAndMedian reduces per-activation durations; the median is immune
// to the odd preemption landing inside one activation's clock reads.
func sumAndMedian(ds []time.Duration) (sum, median time.Duration) {
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, d := range sorted {
		sum += d
	}
	return sum, sorted[len(sorted)/2]
}

// TestE25IncrementalAB is the EXPERIMENTS.md E25 harness: the same
// churn-skewed workload (one hot shard out of 32, the rest pinned with
// standing waits but untouched) under full-copy and the production
// incremental activations in the same process. The incremental detector
// must reach identical decisions while copying at most 20% of its shard
// visits, and its median per-activation copy-out time (summed shard
// mutex holds) must come in at least 3x below the full-copy run's: a
// full copy takes all 32 shards' waits, an incremental one the hot
// shard's. Run with -v for the measured numbers.
func TestE25IncrementalAB(t *testing.T) {
	const rounds = 40
	fullHolds, fullCopied, fullSkipped, fullDec := e25Run(t, true, rounds)
	incHolds, incCopied, incSkipped, incDec := e25Run(t, false, rounds)
	fullHoldNs, fullMedian := sumAndMedian(fullHolds)
	incHoldNs, incMedian := sumAndMedian(incHolds)

	t.Logf("full:        hold=%v median=%v copied=%d skipped=%d", fullHoldNs, fullMedian, fullCopied, fullSkipped)
	t.Logf("incremental: hold=%v median=%v copied=%d skipped=%d", incHoldNs, incMedian, incCopied, incSkipped)

	if fullDec != incDec {
		t.Fatalf("decisions diverge:\nfull:        %s\nincremental: %s", fullDec, incDec)
	}
	if fullSkipped != 0 {
		t.Fatalf("full-copy run skipped %d shards, want 0", fullSkipped)
	}
	total := incCopied + incSkipped
	if total == 0 {
		t.Fatal("incremental run reported no shard visits")
	}
	if frac := float64(incCopied) / float64(total); frac > 0.20 {
		t.Fatalf("incremental run copied %d of %d shard visits (%.0f%%), want <= 20%%", incCopied, total, 100*frac)
	}
	if incMedian <= 0 {
		t.Fatal("incremental run reported zero copy-out time")
	}
	if ratio := float64(fullMedian) / float64(incMedian); ratio < 3 {
		t.Fatalf("median copy-out time drop %.1fx (full %v vs incremental %v), want >= 3x", ratio, fullMedian, incMedian)
	}
}

// e25CostRun feeds the cost model a skewed diet: 31 pinned cold
// shards, hot-shard churn closed by idle activations, and one
// two-transaction deadlock per round (confined to the hot shard,
// resolved by a manual activation). The idle:deadlock activation mix
// is 8:1 — a deadlock-resolving activation rewrites the hot shard's
// sub-snapshot, which the churn would have dirtied anyway, so the cold
// shards are reused by every activation of the incremental leg.
// Returns the model's final state (D̂ and the derived
// T*) and the victims' mean blocked time at abort.
func e25CostRun(t *testing.T, detect func(*Manager) Stats, rounds int) (CostModelState, time.Duration) {
	t.Helper()
	const shards = 32
	m := Open(Options{
		Shards:     shards,
		Scheduling: SchedulingCostModel,
		Period:     time.Second, // background ticker stays out of the way
	})
	defer m.Close()
	ctx := context.Background()

	e25Pin(t, m, shards, 16)
	r1 := shardResource(t, m, 0, 2000)
	r2 := shardResource(t, m, 0, 2001)
	detect(m) // warm-up full copy

	var victimNs int64
	victims := 0
	for round := 0; round < rounds; round++ {
		for k := 0; k < 8; k++ {
			r := shardResource(t, m, 0, 3000+(round*8+k))
			tx := m.Begin()
			if err := tx.Lock(ctx, r, X); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			tx.Recycle()
			if st := detect(m); st.Aborted != 0 {
				t.Fatalf("idle activation aborted someone: %+v", st)
			}
		}
		a, b := m.Begin(), m.Begin()
		if err := a.Lock(ctx, r1, X); err != nil {
			t.Fatal(err)
		}
		if err := b.Lock(ctx, r2, X); err != nil {
			t.Fatal(err)
		}
		errs := make(chan error, 2)
		spans := make(chan time.Duration, 2)
		cross := func(tx *Txn, r ResourceID) {
			start := time.Now()
			err := tx.Lock(ctx, r, X)
			if errors.Is(err, ErrAborted) {
				spans <- time.Since(start)
			}
			errs <- err
		}
		go cross(a, r2)
		waitBlocked(t, m, a.ID())
		go cross(b, r1)
		waitBlocked(t, m, b.ID())
		if st := detect(m); st.Aborted != 1 {
			t.Fatalf("round %d: activation = %+v, want one abort", round, st)
		}
		<-errs
		<-errs
		victimNs += int64(<-spans)
		victims++
		a.Abort()
		b.Abort()
		a.Recycle()
		b.Recycle()
	}
	if victims == 0 {
		t.Fatal("no victims recorded")
	}
	return m.MetricsSnapshot().CostModel, time.Duration(victimNs / int64(victims))
}

// TestE25CostModelFeedthrough checks the scheduling chain: the
// incremental snapshot shrinks ActivationReport.Total, Total is the
// cost model's D̂ sample, so on a skewed workload the incremental
// manager's D̂ must land below the full-copy manager's, pulling its
// cost-minimizing period T* down with it (T* grows with sqrt(D̂)).
// Run with -v for D̂, T* and the mean victim blocked time.
func TestE25CostModelFeedthrough(t *testing.T) {
	const rounds = 25
	// D-hat is an EWMA (alpha 0.2) and an activation here is a few
	// microseconds: one preempted near the end of a leg moves it by more
	// than the distance between the legs. The property is about the copy,
	// not the host, so the pair of legs gets three attempts.
	var cmFull, cmInc CostModelState
	for attempt := 0; attempt < 3; attempt++ {
		var victimFull, victimInc time.Duration
		cmFull, victimFull = e25CostRun(t, detectFullCopy, rounds)
		cmInc, victimInc = e25CostRun(t, (*Manager).Detect, rounds)

		t.Logf("full:        D-hat=%v T*=%v mean-victim-blocked=%v", cmFull.DetectCost, cmFull.Period, victimFull)
		t.Logf("incremental: D-hat=%v T*=%v mean-victim-blocked=%v", cmInc.DetectCost, cmInc.Period, victimInc)

		if cmFull.Samples == 0 || cmInc.Samples == 0 {
			t.Fatalf("cost model saw no samples: full %d, incremental %d", cmFull.Samples, cmInc.Samples)
		}
		if cmInc.DetectCost < cmFull.DetectCost {
			return
		}
	}
	t.Fatalf("incremental D-hat %v not below full-copy D-hat %v on a skewed workload",
		cmInc.DetectCost, cmFull.DetectCost)
}
