package hwtwbg

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// schedStress runs the E20/E21 contended workload (8 workers, two
// random hot X locks each, real deadlocks throughout) under the given
// scheduling policy and returns the manager's lifetime stats, the cost
// model's final state, and the victims' aggregate deadlock-persistence
// cost as the workload experienced it: total and worst time a
// transaction had been blocked when the detector aborted it.
func schedStress(t *testing.T, scheduling string) (Stats, CostModelState, time.Duration, time.Duration, int) {
	t.Helper()
	m := Open(Options{
		Shards:     8,
		Period:     5 * time.Millisecond,
		MaxPeriod:  40 * time.Millisecond,
		Scheduling: scheduling,
	})
	defer m.Close()
	const (
		workers = 8
		rounds  = 100
		hotKeys = 6
	)
	var totalVictimNs, worstVictimNs, victims int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			ctx := context.Background()
			lock := func(tx *Txn, r ResourceID) error {
				start := time.Now()
				err := tx.Lock(ctx, r, X)
				if errors.Is(err, ErrAborted) {
					span := time.Since(start).Nanoseconds()
					atomic.AddInt64(&totalVictimNs, span)
					atomic.AddInt64(&victims, 1)
					for {
						cur := atomic.LoadInt64(&worstVictimNs)
						if span <= cur || atomic.CompareAndSwapInt64(&worstVictimNs, cur, span) {
							break
						}
					}
				}
				return err
			}
			for i := 0; i < rounds; i++ {
				tx := m.Begin()
				a := ResourceID(fmt.Sprintf("hot%d", rng.Intn(hotKeys)))
				b := ResourceID(fmt.Sprintf("hot%d", rng.Intn(hotKeys)))
				if err := lock(tx, a); err != nil {
					tx.Abort()
					continue
				}
				runtime.Gosched()
				if err := lock(tx, b); err != nil {
					tx.Abort()
					continue
				}
				tx.Commit()
			}
		}(int64(w + 1))
	}
	wg.Wait()
	return m.MetricsSnapshot().Detector, m.MetricsSnapshot().CostModel, time.Duration(totalVictimNs), time.Duration(worstVictimNs), int(victims)
}

// TestE24SchedulingComparison is the EXPERIMENTS.md E24 harness (its
// retired halve/double leg removed): the same deadlock-heavy workload
// under a fixed 5ms schedule and the cost-model scheduler, with
// the victims' blocked-time as the deadlock-persistence cost each
// policy lets accrue. The cost model must not let victims wait longer
// on average than the fixed schedule does — under sustained deadlock
// pressure λ̂ stays high and the derived T* stays low, where the fixed
// schedule keeps paying the full period/2 expected persistence. Run
// with -v for the numbers E24 quotes.
func TestE24SchedulingComparison(t *testing.T) {
	type result struct {
		name  string
		st    Stats
		cm    CostModelState
		total time.Duration
		worst time.Duration
		n     int
	}
	var results []result
	for _, sched := range []string{SchedulingFixed, SchedulingCostModel} {
		st, cm, total, worst, n := schedStress(t, sched)
		results = append(results, result{sched, st, cm, total, worst, n})
	}
	for _, r := range results {
		if r.st.Runs == 0 {
			t.Fatalf("%s: detector idle", r.name)
		}
		if r.n == 0 {
			t.Fatalf("%s: workload produced no deadlock victims", r.name)
		}
		mean := r.total / time.Duration(r.n)
		t.Logf("%-9s runs=%-4d aborted=%-4d victims=%-4d victim wait mean=%-12v worst=%-12v model: rate=%.1f/s D=%v P=%v T*=%v",
			r.name, r.st.Runs, r.st.Aborted, r.n, mean, r.worst,
			r.cm.RatePerSec, r.cm.DetectCost, r.cm.PersistCost, r.cm.Period)
	}
	fixed, costmodel := results[0], results[1]
	meanFixed := fixed.total / time.Duration(fixed.n)
	meanCM := costmodel.total / time.Duration(costmodel.n)
	// The gate is on the mean with headroom for scheduling noise on a
	// loaded host: the cost model must at least match the fixed
	// schedule (in quiet runs it clearly beats it; see E24).
	if meanCM > meanFixed*3/2 {
		t.Errorf("cost model let victims wait longer than fixed: %v vs %v mean", meanCM, meanFixed)
	}
	// Under sustained pressure the model's derived period must have
	// come down from the 40ms maximum.
	if costmodel.cm.Period >= 40*time.Millisecond {
		t.Errorf("cost model period pinned at max under deadlock pressure: %+v", costmodel.cm)
	}
	if costmodel.cm.VictimWaits == 0 || costmodel.cm.RatePerSec <= 0 {
		t.Errorf("cost model estimators idle: %+v", costmodel.cm)
	}
}
