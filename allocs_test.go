package hwtwbg

import (
	"math"
	"testing"
)

// TestAllocationPins holds the public API's hot paths and the detector's
// activations to an allocation budget per operation once warm: the mean
// over a run, rounded down, as allocs/op reports it. Each row sets up as
// the benchmark of the same name does, and its budget is what that
// benchmark allocated when the budgets were set. A row with a prep step
// (churn, arming a ring storm) measures only its operation.
func TestAllocationPins(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector's instrumentation allocates")
	}
	const rounds = 40
	rows := []struct {
		name   string
		budget float64
		run    func(t *testing.T) float64
	}{
		{"ManagerUncontended", 1, func(t *testing.T) float64 {
			lm := Open(Options{})
			defer lm.Close()
			return testing.AllocsPerRun(rounds, func() { uncontendedTxn(t, lm) })
		}},
		{"ManagerConflict", 6, func(t *testing.T) float64 {
			lm := Open(Options{})
			defer lm.Close()
			return testing.AllocsPerRun(rounds, func() { conflictRound(t, lm) })
		}},
		{"ManagerLockAll/sequential", 0, func(t *testing.T) float64 {
			lm := Open(Options{})
			defer lm.Close()
			reqs := benchLockAllReqs()
			return testing.AllocsPerRun(rounds, func() { lockEachTxn(t, lm, reqs) })
		}},
		{"ManagerLockAll/batched", 0, func(t *testing.T) float64 {
			lm := Open(Options{})
			defer lm.Close()
			reqs := benchLockAllReqs()
			return testing.AllocsPerRun(rounds, func() { lockAllTxn(t, lm, reqs) })
		}},
		{"MetricsSnapshot", 5, func(t *testing.T) float64 {
			lm := openMetricsSnapshot(t)
			defer lm.Close()
			return testing.AllocsPerRun(rounds, func() { metricsSnapshot(t, lm) })
		}},
		{"DetectorActivation/dirty0", 0, func(t *testing.T) float64 { return churnedActivationAllocs(t, 0, rounds) }},
		{"DetectorActivation/dirty10", 0, func(t *testing.T) float64 { return churnedActivationAllocs(t, 3, rounds) }},
		{"DetectorActivation/dirty90", 0, func(t *testing.T) float64 { return churnedActivationAllocs(t, 29, rounds) }},
		{"DetectorActivation/bystanders2048", 0, func(t *testing.T) float64 { return stormActivationAllocs(t, 4, rounds) }},
		{"DetectorActivation/bystanders4096", 0, func(t *testing.T) float64 { return stormActivationAllocs(t, 8, rounds) }},
		{"DetectSteadyState", 0, func(t *testing.T) float64 {
			d := newSteadyDetector()
			return testing.AllocsPerRun(rounds, func() { steadyRun(t, d) })
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if n := row.run(t); n > row.budget {
				t.Errorf("%v allocs/op, budget %v", n, row.budget)
			}
		})
	}
}

// allocsAfter returns op's allocations per call, the mean over rounds
// rounded down, each call preceded by prep, which is not measured.
func allocsAfter(rounds int, prep, op func()) float64 {
	var total float64
	for i := 0; i < rounds; i++ {
		prep()
		warm := true
		total += testing.AllocsPerRun(1, func() {
			if warm { // AllocsPerRun's unmeasured first call
				warm = false
				return
			}
			op()
		})
	}
	return math.Floor(total / float64(rounds))
}

// churnedActivationAllocs is BenchmarkDetectorActivation/dirtyN: an
// activation after dirty of 32 pinned shards saw a transaction.
func churnedActivationAllocs(t *testing.T, dirty, rounds int) float64 {
	m, churn := openChurned(t, dirty)
	defer m.Close()
	m.Detect() // warm-up: the one full copy
	return allocsAfter(rounds, churn, func() { m.Detect() })
}

// stormActivationAllocs is BenchmarkDetectorActivation/bystandersN: an
// activation resolving four X-rings among 512 bystanders holding
// locksEach locks apiece. The warm-up is as long as the measurement:
// recycled resource records still grow their holder lists now and then
// early on (see TestActivationAllocs), which a benchmark amortizes over
// thousands of activations.
func stormActivationAllocs(t *testing.T, locksEach, rounds int) float64 {
	s := newRingStorm(t, 512, locksEach)
	defer s.close()
	for i := 0; i < rounds; i++ {
		s.arm(t)
		s.m.Detect()
		s.drain(t)
	}
	armed := false
	rearm := func() {
		if armed {
			s.drain(t)
		}
		s.arm(t)
		armed = true
	}
	n := allocsAfter(rounds, rearm, func() {
		if st := s.m.Detect(); st.Aborted != stormRings {
			t.Fatalf("activation = %+v, want %d aborts", st, stormRings)
		}
	})
	s.drain(t)
	return n
}
