package sim

import (
	"testing"

	"hwtwbg/internal/twbg"
)

// TestSoak runs every strategy over several seeds and workload mixes,
// asserting the global safety properties throughout: progress, no
// deadlock outliving its resolution discipline, restarts bounded by
// aborts. It is the long-haul regression net; -short skips it.
func TestSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	mixes := []Config{
		{Terminals: 6, Resources: 12, TxnLength: 4, WriteFrac: 0.3, HotProb: 0.4, Period: 5, Duration: 5000},
		{Terminals: 12, Resources: 8, TxnLength: 6, WriteFrac: 0.6, HotProb: 0.7, HotFrac: 0.25, Period: 20, Duration: 5000},
		{Terminals: 8, Resources: 16, TxnLength: 5, WriteFrac: 0.2, ConvFrac: 0.4, HotProb: 0.5, Period: 10, Duration: 5000},
		{Terminals: 10, Resources: 10, TxnLength: 5, WriteFrac: 0.4, MGLModes: true, HotProb: 0.5, Period: 10, Duration: 5000},
	}
	for name, f := range AllStrategies(10) {
		name, f := name, f
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for mi, base := range mixes {
				for seed := int64(1); seed <= 3; seed++ {
					cfg := base
					cfg.Seed = seed
					s := New(cfg, f)
					for i := int64(0); i < cfg.Duration; i++ {
						s.Tick()
					}
					if err := s.tb.Validate(); err != nil {
						t.Fatalf("mix %d seed %d: table invariant broken: %v", mi, seed, err)
					}
					m := s.Metrics()
					if m.Commits == 0 {
						t.Errorf("mix %d seed %d: no commits", mi, seed)
					}
					if m.Restarts > m.Aborts {
						t.Errorf("mix %d seed %d: restarts %d > aborts %d", mi, seed, m.Restarts, m.Aborts)
					}
					// After a final resolution pass, nothing may be
					// deadlocked — with two documented exceptions:
					// agrawal's single-edge graph can miss deadlocks
					// indefinitely (experiment E9), and timeout clears
					// them only after its wait limit.
					switch name {
					case "agrawal":
						// No end-state guarantee: missed detection is
						// the point of this baseline.
					case "timeout":
						s.resolver.OnTick(s.now + 10*cfg.Period + 1)
						if twbg.Deadlocked(s.tb) {
							t.Errorf("mix %d seed %d: deadlock survived the timeout limit:\n%s", mi, seed, s.tb)
						}
					default:
						s.resolver.OnTick(s.now)
						if twbg.Deadlocked(s.tb) {
							t.Errorf("mix %d seed %d: deadlock at end of run:\n%s", mi, seed, s.tb)
						}
					}
				}
			}
		})
	}
}
