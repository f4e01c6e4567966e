package sim

import (
	"testing"

	"hwtwbg/internal/twbg"
)

// TestPreventionShape (the detection-vs-prevention axis of reference
// [2]): both prevention schemes make progress, never leave a deadlock
// standing past a tick, and abort far more transactions than the
// detection-based H/W-TWBG resolver on the same workload — they kill on
// conflict, not on deadlock.
func TestPreventionShape(t *testing.T) {
	cfg := contention
	cfg.Duration = 8000
	park := Run(cfg, Park)
	for _, f := range []Factory{WaitDie, WoundWait} {
		m := Run(cfg, f)
		if m.Commits < 100 {
			t.Fatalf("%s: commits = %d, stuck", m.Strategy, m.Commits)
		}
		if m.Aborts <= park.Aborts {
			t.Errorf("%s aborted %d <= park's %d; prevention should abort far more on this workload",
				m.Strategy, m.Aborts, park.Aborts)
		}
		t.Logf("%s", m.String())
	}
	t.Logf("%s", park.String())
}

// TestPreventionNeverDeadlocks: run the closed loop and assert at every
// period boundary that no deadlock stands (the sweep repairs the
// conversion hole within a period).
func TestPreventionNeverDeadlocks(t *testing.T) {
	for _, f := range []Factory{WaitDie, WoundWait} {
		cfg := contention
		cfg.ConvFrac = 0.3 // exercise the conversion hole
		cfg.Duration = 3000
		s := New(cfg, f)
		for i := int64(0); i < cfg.Duration; i++ {
			s.Tick()
			if (s.now-1)%cfg.Period == 0 {
				if twbg.Deadlocked(s.tb) {
					t.Fatalf("%s: deadlock survived a period boundary at tick %d", s.resolver.Name(), i)
				}
			}
		}
		if s.Metrics().Commits == 0 {
			t.Fatalf("no commits")
		}
	}
}
