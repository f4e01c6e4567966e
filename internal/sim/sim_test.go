package sim

import (
	"slices"
	"testing"

	"hwtwbg/internal/detect"
	"hwtwbg/internal/lock"
	"hwtwbg/internal/table"
	"hwtwbg/internal/twbg"
)

// contention is a deadlock-prone workload used across the tests.
var contention = Config{
	Terminals: 8,
	Resources: 10,
	TxnLength: 5,
	WriteFrac: 0.5,
	HotProb:   0.6,
	HotFrac:   0.3,
	Period:    10,
	Duration:  8000,
	Seed:      42,
}

func TestRunMakesProgressAllStrategies(t *testing.T) {
	for name, f := range AllStrategies(contention.Period) {
		name, f := name, f
		t.Run(name, func(t *testing.T) {
			m := Run(contention, f)
			// The timeout strategy is legitimately slow under this
			// hotspot (deadlocks persist for the whole wait limit); it
			// only has to make progress, not compete.
			minCommits := 100
			if name == "timeout" {
				minCommits = 20
			}
			if m.Commits < minCommits {
				t.Fatalf("%s: commits = %d, the workload is stuck", name, m.Commits)
			}
			if m.Strategy == "" {
				t.Error("strategy name missing")
			}
			if m.Throughput() <= 0 {
				t.Error("throughput must be positive")
			}
			if m.String() == "" {
				t.Error("String() empty")
			}
		})
	}
}

func TestDeterminism(t *testing.T) {
	a := Run(contention, Park)
	b := Run(contention, Park)
	if a.String() != b.String() || a.Repositionings != b.Repositionings ||
		a.Restarts != b.Restarts || a.SalvagedVictims != b.SalvagedVictims ||
		a.Waits() != b.Waits() {
		t.Fatalf("same seed, different metrics:\n%+v\n%+v", a, b)
	}
	c := contention
	c.Seed = 43
	d := Run(c, Park)
	if a.Commits == d.Commits && a.Aborts == d.Aborts && a.WaitTicks == d.WaitTicks {
		t.Fatal("different seeds produced identical runs; PRNG not wired in")
	}
}

func TestNoDeadlockSurvivesTheRun(t *testing.T) {
	s := New(contention, Park)
	for i := int64(0); i < 4000; i++ {
		s.Tick()
		// At every period boundary the table must be deadlock-free
		// right after the tick.
		if (s.now-1)%contention.Period == 0 {
			if twbg.Deadlocked(s.tb) {
				t.Fatalf("tick %d: deadlock survived a period boundary", i)
			}
		}
	}
}

func TestDeadlocksActuallyHappen(t *testing.T) {
	m := Run(contention, Park)
	if m.Aborts == 0 && m.Repositionings == 0 {
		t.Fatal("the contention workload produced no deadlocks; the comparisons are vacuous")
	}
}

// TestTDR2FiresUnderConversionLoad (experiment E11): with conversions
// and shared traffic, some deadlocks must be resolved by repositioning.
func TestTDR2FiresUnderConversionLoad(t *testing.T) {
	cfg := contention
	cfg.ConvFrac = 0.3
	cfg.WriteFrac = 0.2
	cfg.Duration = 12000
	m := Run(cfg, Park)
	if m.Repositionings == 0 {
		t.Fatalf("no TDR-2 repositionings under conversion load: %+v", m)
	}
	ablation := Run(cfg, ParkNoTDR2)
	if ablation.Repositionings != 0 {
		t.Fatal("ablation must not reposition")
	}
	if m.Aborts >= ablation.Aborts {
		t.Logf("warning: TDR-2 did not reduce aborts on this seed (%d vs %d)", m.Aborts, ablation.Aborts)
	}
}

// TestDetectionLatency (experiment E9): the single-edge periodic
// detector leaves deadlocks in place longer than the H/W-TWBG detector
// under the same workload and period.
func TestDetectionLatency(t *testing.T) {
	cfg := contention
	cfg.MeasureLatency = true
	cfg.Duration = 6000
	park := Run(cfg, Park)
	agr := Run(cfg, Agrawal)
	if park.DeadlockEpisodes == 0 || agr.DeadlockEpisodes == 0 {
		t.Fatalf("no deadlock episodes measured: park=%d agrawal=%d",
			park.DeadlockEpisodes, agr.DeadlockEpisodes)
	}
	if agr.MeanDeadlockTicks() < park.MeanDeadlockTicks() {
		t.Errorf("single-edge detector resolved faster than H/W-TWBG: %.1f vs %.1f ticks",
			agr.MeanDeadlockTicks(), park.MeanDeadlockTicks())
	}
	t.Logf("mean deadlock persistence: park=%.1f agrawal=%.1f ticks",
		park.MeanDeadlockTicks(), agr.MeanDeadlockTicks())
}

// TestVictimQuality (experiment E10): abort-the-requester wastes more
// work than min-cost selection over a long run.
func TestVictimQuality(t *testing.T) {
	cfg := contention
	cfg.Duration = 20000
	park := Run(cfg, Park)
	elm := Run(cfg, Elmagarmid)
	if park.Aborts == 0 || elm.Aborts == 0 {
		t.Fatalf("no aborts: park=%d elm=%d", park.Aborts, elm.Aborts)
	}
	perAbortPark := float64(park.WastedOps) / float64(park.Aborts)
	perAbortElm := float64(elm.WastedOps) / float64(elm.Aborts)
	t.Logf("wasted ops per abort: park=%.2f elmagarmid=%.2f", perAbortPark, perAbortElm)
	if perAbortElm < perAbortPark*0.8 {
		t.Errorf("abort-the-requester wasted less per abort than min-cost: %.2f vs %.2f",
			perAbortElm, perAbortPark)
	}
}

func TestMGLModeMix(t *testing.T) {
	cfg := contention
	cfg.MGLModes = true
	cfg.Duration = 6000
	m := Run(cfg, Park)
	if m.Commits < 100 {
		t.Fatalf("MGL-mode workload stuck: %+v", m)
	}
}

func TestConfigDefaults(t *testing.T) {
	got := Config{}.withDefaults()
	if got.Terminals == 0 || got.Resources == 0 || got.TxnLength == 0 ||
		got.Period == 0 || got.Duration == 0 || got.Seed == 0 ||
		got.ThinkTime == 0 || got.Restart == 0 || got.WriteFrac == 0 || got.HotFrac == 0 {
		t.Fatalf("defaults missing: %+v", got)
	}
}

func TestMetricsHelpers(t *testing.T) {
	m := Metrics{}
	if m.Throughput() != 0 || m.MeanDeadlockTicks() != 0 {
		t.Fatal("zero-value metrics must not divide by zero")
	}
	m.Commits = 500
	m.Config.Duration = 1000
	if m.Throughput() != 500 {
		t.Fatalf("Throughput = %v", m.Throughput())
	}
	m.DeadlockEpisodes = 4
	m.DeadlockTicks = 10
	if m.MeanDeadlockTicks() != 2.5 {
		t.Fatalf("MeanDeadlockTicks = %v", m.MeanDeadlockTicks())
	}
}

func TestParkResolverDirect(t *testing.T) {
	r := Park(&Sim{tb: table.New()})
	if r.Name() != "park-hwtwbg" {
		t.Errorf("Name = %q", r.Name())
	}
	if got := r.OnBlocked(1, 0); got != nil {
		t.Error("OnBlocked must be nil")
	}
	if got := r.OnTick(0); len(got) != 0 {
		t.Errorf("OnTick on empty table = %v", got)
	}
	r.Forget(1)
	pr := r.(*ParkResolver)
	if pr.Park() != (ParkStats{}) {
		t.Errorf("stats = %+v", pr.Park())
	}
}

// TestLifecycle: transactions get ids in begin order, older ones smaller
// priorities, and a committed transaction is forgotten, so the
// simulation tracks only the live transaction of each terminal.
func TestLifecycle(t *testing.T) {
	s := New(Config{Terminals: 2, TxnLength: 1}, Park)
	a, b := s.term[0], s.term[1]
	if a.id != 1 || b.id != 2 || s.priority(a.id) >= s.priority(b.id) {
		t.Fatalf("ids %v, %v with priorities %d, %d", a.id, b.id, a.priority, b.priority)
	}
	for s.Metrics().Commits < 10 {
		s.Tick()
	}
	if a.id <= 2 || b.id <= 2 {
		t.Fatalf("ids %v, %v after 10 commits, want successors", a.id, b.id)
	}
	for id := table.TxnID(1); id < s.nextID; id++ {
		_, live := s.owner[id]
		if want := id == a.id || id == b.id; live != want {
			t.Errorf("T%d tracked = %v, want %v", id, live, want)
		}
	}
	if s.priority(1) != 1<<62 {
		t.Error("a committed transaction must rank newest")
	}
}

// TestCostMetrics: a victim costs the locks it holds plus one, so that
// no cost is 0; a conversion does not count twice.
func TestCostMetrics(t *testing.T) {
	s := New(Config{Terminals: 2}, Park)
	a, b := s.term[0].id, s.term[1].id
	if got := s.lockCost(a); got != 1 {
		t.Fatalf("lockCost before any lock = %v, want 1", got)
	}
	for _, r := range []struct {
		id   table.TxnID
		rid  table.ResourceID
		mode lock.Mode
	}{{a, "R1", lock.S}, {a, "R2", lock.IX}, {a, "R1", lock.X}, {b, "R3", lock.S}} {
		if g, err := s.tb.Request(r.id, r.rid, r.mode); err != nil || !g {
			t.Fatalf("%v %v on %s: %v %v", r.id, r.mode, r.rid, g, err)
		}
	}
	if s.lockCost(a) != 3 || s.lockCost(b) != 2 || s.lockCost(99) != 1 {
		t.Fatalf("lockCost = %v, %v, unknown %v; want 3, 2, 1", s.lockCost(a), s.lockCost(b), s.lockCost(99))
	}
}

// TestRestartCarriesCount: a victim's successor has a fresh id, its
// predecessor's priority and one more restart, while the aborted
// transaction is forgotten.
func TestRestartCarriesCount(t *testing.T) {
	s := New(Config{Terminals: 2}, Park)
	a := s.term[0]
	prio := a.priority
	for restarts := 1; restarts <= 2; restarts++ {
		if _, err := s.tb.Request(a.id, "R", lock.X); err != nil {
			t.Fatal(err)
		}
		old := a.id
		s.tb.Abort(old) // as a resolver would, before reporting the victim
		s.applyVictims([]table.TxnID{old}, s.now)
		if s.priority(old) != 1<<62 {
			t.Fatal("an aborted transaction must rank newest")
		}
		for a.restartAt > 0 {
			s.Tick()
		}
		if a.id == old || a.restarts != restarts || a.priority != prio || s.priority(a.id) != prio {
			t.Fatalf("successor = id %v, %d restarts, priority %d; want a fresh id, %d restarts, priority %d",
				a.id, a.restarts, a.priority, restarts, prio)
		}
	}
	if m := s.Metrics(); m.Aborts != 2 || m.Restarts != 2 || m.MaxRestarts != 2 {
		t.Fatalf("metrics = %+v", m)
	}
}

// block issues a request that must wait and marks the terminal blocked,
// as step does.
func block(t *testing.T, s *Sim, term *terminal, rid table.ResourceID, mode lock.Mode) {
	t.Helper()
	if g, err := s.tb.Request(term.id, rid, mode); err != nil || g {
		t.Fatalf("%v %v on %s: granted %v, err %v; want a wait", term.id, mode, rid, g, err)
	}
	term.blocked = true
	term.blockedSince = s.now
}

// TestDetectorIntegration: two terminals' transactions deadlock; the
// periodic detector, pricing victims by locks held, aborts the one
// holding fewer, the simulation schedules its restart, and the sweep
// resumes the survivor, which now holds both resources.
func TestDetectorIntegration(t *testing.T) {
	s := New(Config{Terminals: 2}, Park)
	a, b := s.term[0], s.term[1]
	for _, r := range []struct {
		id  table.TxnID
		rid table.ResourceID
	}{{a.id, "RA"}, {a.id, "RC"}, {b.id, "RB"}} {
		if g, err := s.tb.Request(r.id, r.rid, lock.X); err != nil || !g {
			t.Fatalf("%v on %s: %v %v", r.id, r.rid, g, err)
		}
	}
	block(t, s, a, "RB", lock.X)
	block(t, s, b, "RA", lock.X)
	s.applyVictims(s.resolver.OnTick(s.now), s.now)
	if b.restartAt == 0 || a.restartAt != 0 {
		t.Fatalf("restarts scheduled at %d (a) and %d (b), want b's only", a.restartAt, b.restartAt)
	}
	s.sweep(s.now)
	if a.blocked || s.tb.HeldMode(a.id, "RB") != lock.X {
		t.Fatalf("survivor blocked %v, holds %v on RB", a.blocked, s.tb.HeldMode(a.id, "RB"))
	}
	if m := s.Metrics(); m.Aborts != 1 || m.Waits() != 2 {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestSweepAfterTDR2: a deadlock resolved by TDR-2 repositioning aborts
// nobody; the sweep resumes the one terminal whose transaction the
// repositioning granted and leaves the others blocked.
func TestSweepAfterTDR2(t *testing.T) {
	s := New(Config{Terminals: 9}, ParkUniformCost)
	term := func(n int) *terminal { return s.term[n-1] }
	for _, r := range []struct {
		n    int
		rid  table.ResourceID
		mode lock.Mode
		wait bool
	}{
		{1, "R1", lock.IX, false}, {2, "R1", lock.IS, false}, {3, "R1", lock.IX, false},
		{4, "R1", lock.IS, false}, {7, "R2", lock.IS, false}, {2, "R1", lock.S, true},
		{1, "R1", lock.S, true}, {5, "R1", lock.IX, true}, {6, "R1", lock.S, true},
		{7, "R1", lock.IX, true}, {8, "R2", lock.X, true}, {9, "R2", lock.IX, true},
		{3, "R2", lock.S, true}, {4, "R2", lock.X, true},
	} {
		if r.wait {
			block(t, s, term(r.n), r.rid, r.mode)
		} else if g, err := s.tb.Request(term(r.n).id, r.rid, r.mode); err != nil || !g {
			t.Fatalf("T%d %v on %s: %v %v", r.n, r.mode, r.rid, g, err)
		}
	}
	if victims := s.resolver.OnTick(s.now); len(victims) != 0 {
		t.Fatalf("victims = %v, want none", victims)
	}
	if st := s.resolver.(*ParkResolver).Park(); st.Repositionings != 1 {
		t.Fatalf("stats = %+v, want one repositioning", st)
	}
	s.sweep(s.now)
	if term(9).blocked {
		t.Fatal("T9 must resume after the TDR-2 grant")
	}
	for _, n := range []int{1, 2, 3, 5, 6, 8} {
		if !term(n).blocked {
			t.Errorf("T%d resumed, want blocked", n)
		}
	}
}

func TestUniformCostVariant(t *testing.T) {
	cfg := contention
	cfg.Duration = 4000
	m := Run(cfg, ParkUniformCost)
	if m.Strategy != "park-uniform-cost" || m.Commits == 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestRestartsFollowAborts(t *testing.T) {
	m := Run(contention, WFGContinuous)
	if m.Aborts == 0 {
		t.Skip("no aborts on this seed")
	}
	if m.Restarts == 0 {
		t.Fatal("aborted transactions never restarted")
	}
	if m.Restarts > m.Aborts {
		t.Fatalf("restarts=%d > aborts=%d", m.Restarts, m.Aborts)
	}
}

func TestWaitPercentiles(t *testing.T) {
	m := Run(contention, Park)
	if m.Waits() == 0 {
		t.Fatal("no waits recorded under contention")
	}
	p50 := m.WaitPercentile(50)
	p99 := m.WaitPercentile(99)
	if p50 < 0 || p99 < p50 {
		t.Fatalf("p50=%d p99=%d", p50, p99)
	}
	if max := m.WaitPercentile(100); max < p99 {
		t.Fatalf("p100=%d < p99=%d", max, p99)
	}
	var zero Metrics
	if zero.WaitPercentile(50) != 0 || zero.Waits() != 0 {
		t.Fatal("zero-value metrics percentile")
	}
}

// TestWaitPercentileNearestRank: the p-th percentile is the smallest
// sample with at least p % of the samples at or below it, as in
// journal's latency percentiles, so p99 of two samples is the larger.
func TestWaitPercentileNearestRank(t *testing.T) {
	two := Metrics{waits: []int64{9, 1}}
	ten := Metrics{waits: []int64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}}
	for _, c := range []struct {
		m    Metrics
		p    float64
		want int64
	}{
		{two, 50, 1}, {two, 99, 9}, {two, 100, 9},
		{ten, 1, 1}, {ten, 50, 5}, {ten, 90, 9}, {ten, 99, 10}, {ten, 100, 10},
	} {
		if got := c.m.WaitPercentile(c.p); got != c.want {
			t.Errorf("p%v of %d samples = %d, want %d", c.p, len(c.m.waits), got, c.want)
		}
	}
}

// TestContinuousResolvesOnBlock: two terminals cross. The first block
// closes no cycle, so the continuous companion aborts nobody; the second
// closes one, and OnBlocked itself returns the victim — the transaction
// holding fewer locks — leaving the table deadlock-free. Its OnTick does
// nothing.
func TestContinuousResolvesOnBlock(t *testing.T) {
	s := New(Config{Terminals: 2}, ParkContinuous)
	a, b := s.term[0], s.term[1]
	for _, r := range []struct {
		id  table.TxnID
		rid table.ResourceID
	}{{a.id, "RA"}, {a.id, "RC"}, {b.id, "RB"}} {
		if g, err := s.tb.Request(r.id, r.rid, lock.X); err != nil || !g {
			t.Fatalf("%v on %s: %v %v", r.id, r.rid, g, err)
		}
	}
	block(t, s, a, "RB", lock.X)
	if v := s.resolver.OnBlocked(a.id, s.now); len(v) != 0 {
		t.Fatalf("no deadlock yet, aborted %v", v)
	}
	block(t, s, b, "RA", lock.X)
	if v := s.resolver.OnBlocked(b.id, s.now); len(v) != 1 || v[0] != b.id {
		t.Fatalf("victims = %v, want [%v]", v, b.id)
	}
	if twbg.Deadlocked(s.tb) {
		t.Fatal("deadlock remains")
	}
	if s.resolver.Name() != "park-continuous" {
		t.Errorf("Name = %q", s.resolver.Name())
	}
	if v := s.resolver.OnTick(s.now); v != nil {
		t.Errorf("OnTick acted: %v", v)
	}
}

// TestContinuousCostDrivenVictim: the continuous companion picks its victim by cost,
// not by which transaction blocked last. Here the transaction whose block
// closes the cycle holds more locks, so the other one is aborted.
func TestContinuousCostDrivenVictim(t *testing.T) {
	s := New(Config{Terminals: 2}, ParkContinuous)
	a, b := s.term[0], s.term[1]
	for _, r := range []struct {
		id  table.TxnID
		rid table.ResourceID
	}{{a.id, "RA"}, {b.id, "RB"}, {b.id, "RC"}, {b.id, "RD"}} {
		if g, err := s.tb.Request(r.id, r.rid, lock.X); err != nil || !g {
			t.Fatalf("%v on %s: %v %v", r.id, r.rid, g, err)
		}
	}
	block(t, s, a, "RB", lock.X)
	if v := s.resolver.OnBlocked(a.id, s.now); len(v) != 0 {
		t.Fatalf("no deadlock yet, aborted %v", v)
	}
	block(t, s, b, "RA", lock.X)
	if v := s.resolver.OnBlocked(b.id, s.now); len(v) != 1 || v[0] != a.id {
		t.Fatalf("victims = %v, want the cheaper %v", v, a.id)
	}
	if twbg.Deadlocked(s.tb) {
		t.Fatal("deadlock remains")
	}
}

// continuousChecker runs ParkContinuous's activation on every block, as
// its OnBlocked does, and checks the invariant of continuous operation
// afterwards: the table is deadlock-free, and every cycle the activation
// resolved ran through the transaction that just blocked (before it
// blocked the table was deadlock-free, so no other cycle can exist).
type continuousChecker struct {
	*ParkResolver
	t        *testing.T
	tb       *table.Table
	resolved int
}

func (c *continuousChecker) OnBlocked(txn table.TxnID, now int64) []table.TxnID {
	c.t.Helper()
	res := c.activate()
	if twbg.Deadlocked(c.tb) {
		c.t.Fatalf("tick %d: deadlock survived the activation for %v:\n%s", now, txn, c.tb)
	}
	for _, r := range res.Resolutions {
		if !slices.ContainsFunc(r.Cycle, func(e detect.CycleEdge) bool { return e.From == txn }) {
			c.t.Fatalf("tick %d: resolved cycle %v misses the blocked %v", now, r.Cycle, txn)
		}
	}
	c.resolved += len(res.Resolutions)
	return res.Aborted
}

// TestContinuousInvariant: across seeds and the S/X, MGL-mode and
// conversion mixes, every continuous activation leaves the table
// deadlock-free and resolves only cycles through the transaction that
// just blocked; between them they exercise TDR-1, TDR-2 and Step 3
// salvage.
func TestContinuousInvariant(t *testing.T) {
	mix := map[string]func(*Config){
		"sx":   func(*Config) {},
		"mgl":  func(c *Config) { c.MGLModes = true },
		"conv": func(c *Config) { c.ConvFrac = 0.3 },
	}
	var total Metrics
	for name, set := range mix {
		for seed := int64(1); seed <= 4; seed++ {
			cfg := contention
			cfg.Duration = 1500
			cfg.Seed = seed
			set(&cfg)
			var c *continuousChecker
			m := Run(cfg, func(s *Sim) Resolver {
				c = &continuousChecker{ParkResolver: ParkContinuous(s).(*ParkResolver), t: t, tb: s.tb}
				return c
			})
			if c.resolved == 0 {
				t.Errorf("%s seed %d: no cycle resolved; the check is vacuous", name, seed)
			}
			total.Aborts += m.Aborts
			total.Repositionings += m.Repositionings
			total.SalvagedVictims += m.SalvagedVictims
		}
	}
	if total.Aborts == 0 || total.Repositionings == 0 || total.SalvagedVictims == 0 {
		t.Errorf("aborts %d, TDR-2 %d, salvaged %d: every resolution kind must occur",
			total.Aborts, total.Repositionings, total.SalvagedVictims)
	}
}

// TestContinuousExample41TDR2 replays the paper's Example 4.1 with the
// continuous companion activated on every block. The block that closes
// the cycle is T3's S on R2 (T4's X afterwards joins none); it is
// resolved by TDR-2, aborting nobody, and Step 3 grants T9 at once.
func TestContinuousExample41TDR2(t *testing.T) {
	s := New(Config{Terminals: 9}, ParkContinuous)
	term := func(n int) *terminal { return s.term[n-1] }
	for _, r := range []struct {
		n    int
		rid  table.ResourceID
		mode lock.Mode
		wait bool
	}{
		{1, "R1", lock.IX, false}, {2, "R1", lock.IS, false}, {3, "R1", lock.IX, false},
		{4, "R1", lock.IS, false}, {7, "R2", lock.IS, false}, {2, "R1", lock.S, true},
		{1, "R1", lock.S, true}, {5, "R1", lock.IX, true}, {6, "R1", lock.S, true},
		{7, "R1", lock.IX, true}, {8, "R2", lock.X, true}, {9, "R2", lock.IX, true},
		{3, "R2", lock.S, true}, {4, "R2", lock.X, true},
	} {
		if !r.wait {
			if g, err := s.tb.Request(term(r.n).id, r.rid, r.mode); err != nil || !g {
				t.Fatalf("T%d %v on %s: %v %v", r.n, r.mode, r.rid, g, err)
			}
			continue
		}
		block(t, s, term(r.n), r.rid, r.mode)
		if v := s.resolver.OnBlocked(term(r.n).id, s.now); len(v) != 0 {
			t.Fatalf("T%d on %s: victims %v, want TDR-2 only", r.n, r.rid, v)
		}
		if twbg.Deadlocked(s.tb) {
			t.Fatalf("deadlock persisted after the activation for T%d on %s", r.n, r.rid)
		}
	}
	if st := s.resolver.(*ParkResolver).Park(); st.Repositionings != 1 {
		t.Fatalf("stats = %+v, want one repositioning", st)
	}
	want := "R2(IX): Holder((T9, IX, NL) (T7, IS, NL)) Queue((T3, S) (T8, X) (T4, X))"
	if got := s.tb.Resource("R2").String(); got != want {
		t.Fatalf("R2:\n got  %s\n want %s", got, want)
	}
}
