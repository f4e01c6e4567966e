package hwtwbg

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// stallStress runs the E20 contended workload (8 workers, two random
// hot X locks each, real deadlocks throughout) against the background
// detector and returns the manager's lifetime stats plus its retained
// activation reports.
func stallStress(t *testing.T) (Stats, []ActivationReport) {
	t.Helper()
	m := Open(Options{Shards: 8, Period: time.Millisecond})
	defer m.Close()
	const (
		workers = 8
		rounds  = 150
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
				a := ResourceID(fmt.Sprintf("hot%d", rng.Intn(hotKeys)))
				b := ResourceID(fmt.Sprintf("hot%d", rng.Intn(hotKeys)))
				if err := tx.Lock(ctx, a, X); err != nil {
					tx.Abort()
					continue
				}
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

	reps, _ := m.Activations()
	return m.MetricsSnapshot().Detector, reps
}

// TestE21StallComparison is the EXPERIMENTS.md E21 harness, minus its
// retired stop-the-world leg: a deadlock-heavy workload whose every
// activation's grant-path stall (the longest single-shard copy hold,
// Stats.ShardHoldMax across the run) is set against the activation's
// full length — what a stop-the-world detector would have stalled the
// grant path for. Run with -v for the numbers.
func TestE21StallComparison(t *testing.T) {
	st, reps := stallStress(t)
	if st.Runs == 0 || len(reps) == 0 {
		t.Fatalf("detector idle: %+v", st)
	}
	if st.Aborted == 0 {
		t.Fatalf("workload produced no deadlocks: %+v", st)
	}
	var hold, total, worst time.Duration
	for _, r := range reps {
		hold += r.MaxShardHold
		total += r.Total
		if r.Total > worst {
			worst = r.Total
		}
	}
	n := time.Duration(len(reps))
	t.Logf("runs=%d cycles=%d aborted=%d stall max=%v mean=%v (activation mean %v, worst %v, false=%d validations=%d)",
		st.Runs, st.CyclesSearched, st.Aborted, st.ShardHoldMax, hold/n, total/n, worst, st.FalseCycles, st.Validations)

	// The stall is one shard's copy-out, a strict subset of the
	// activation's work. The gate is on the mean — the max is a single
	// sample and one unlucky preemption mid-copy on a loaded host can
	// inflate it.
	if hold >= total {
		t.Errorf("mean grant-path stall %v is not below the mean activation %v", hold/n, total/n)
	}
}
