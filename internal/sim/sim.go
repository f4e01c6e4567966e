// Package sim is the workload testbed: a deterministic closed-loop
// transaction-processing simulator in the style of the performance
// studies the paper builds on (Agrawal/Carey/McVoy TSE'87,
// Agrawal/Carey/Livny TODS'87, Pun/Belford TSE'87). A fixed number of
// terminals run transactions of a configurable length against a pool of
// resources with configurable skew, write fraction and lock-conversion
// fraction; deadlocks are handled by a pluggable Resolver; the simulator
// reports throughput, aborts, wasted work, wait time and (optionally)
// deadlock detection latency measured against the ground-truth oracle.
//
// The paper itself has no experimental section; this simulator is the
// substitute testbed that exercises the identical lock-table code paths
// and lets the benchmarks compare the H/W-TWBG detector with the
// re-implemented baselines (see DESIGN.md, experiments E9-E11, E14).
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"hwtwbg/internal/lock"
	"hwtwbg/internal/table"
	"hwtwbg/internal/twbg"
)

// Resolver is the deadlock-handling strategy interface. The periodic
// H/W-TWBG detector, the re-implemented baselines and the timeout scheme
// all satisfy it structurally.
type Resolver interface {
	// Name identifies the strategy in reports.
	Name() string
	// OnBlocked is invoked right after a request blocked; continuous
	// detectors resolve here. It returns the victims it aborted.
	OnBlocked(txn table.TxnID, now int64) []table.TxnID
	// OnTick is invoked on every detection-period boundary; periodic
	// detectors resolve here. It returns the victims it aborted.
	OnTick(now int64) []table.TxnID
	// Forget tells the resolver a transaction is no longer blocked
	// (granted, committed or aborted) so per-block state can be dropped.
	Forget(txn table.TxnID)
}

// Config parameterizes a run. Zero values are replaced by the defaults
// noted on each field.
type Config struct {
	Terminals int     // concurrent transactions (default 8)
	Resources int     // size of the resource pool (default 32)
	TxnLength int     // lock requests per transaction (default 6)
	WriteFrac float64 // probability a request is X rather than S (default 0.3)
	ConvFrac  float64 // probability a read is later upgraded to X (default 0)
	MGLModes  bool    // mix IS/IX/SIX traffic in (default off: pure S/X)
	HotFrac   float64 // fraction of resources forming the hot spot (default 0.2)
	HotProb   float64 // probability a request goes to the hot spot (default 0)
	ThinkTime int64   // ticks between a terminal's operations (default 1)
	Restart   int64   // ticks before an aborted transaction restarts (default 2)
	Period    int64   // resolver tick period (default 10)
	Duration  int64   // total ticks to simulate (default 10000)
	Seed      int64   // PRNG seed (default 1)

	// MeasureLatency turns on per-tick oracle checks to measure how long
	// deadlocks persist before the strategy clears them. Quadratic in
	// the number of live transactions; enable for experiments, not for
	// throughput benchmarking.
	MeasureLatency bool
}

func (c Config) withDefaults() Config {
	if c.Terminals == 0 {
		c.Terminals = 8
	}
	if c.Resources == 0 {
		c.Resources = 32
	}
	if c.TxnLength == 0 {
		c.TxnLength = 6
	}
	if c.WriteFrac == 0 {
		c.WriteFrac = 0.3
	}
	if c.HotFrac == 0 {
		c.HotFrac = 0.2
	}
	if c.ThinkTime == 0 {
		c.ThinkTime = 1
	}
	if c.Restart == 0 {
		c.Restart = 2
	}
	if c.Period == 0 {
		c.Period = 10
	}
	if c.Duration == 0 {
		c.Duration = 10000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Metrics reports one run.
type Metrics struct {
	Strategy string
	Config   Config

	Commits  int // transactions committed
	Aborts   int // victim aborts (deadlock resolution)
	Restarts int // victim restarts performed

	WastedOps int   // operations performed by transactions that were later aborted
	WaitTicks int64 // total ticks terminals spent blocked
	// MaxRestarts is the largest number of times any single logical
	// transaction was victimized and restarted — the livelock/starvation
	// indicator (Section 1 of the paper raises this concern about [8]).
	MaxRestarts int

	waits []int64 // individual completed wait durations (for percentiles)

	DeadlockEpisodes  int   // distinct intervals during which the oracle saw a deadlock (MeasureLatency only)
	DeadlockTicks     int64 // total ticks some deadlock persisted (MeasureLatency only)
	Repositionings    int   // TDR-2 applications (Park resolver only)
	SalvagedVictims   int   // victims rescued at Step 3 (Park resolver only)
	ResolverEdgeVisit int   // cumulative Step 2 edge visits (Park resolver only)
}

// WaitPercentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of individual completed wait durations: the smallest one with at least
// p % of them at or below it. It is 0 when nothing ever waited.
func (m Metrics) WaitPercentile(p float64) int64 {
	if len(m.waits) == 0 {
		return 0
	}
	sorted := slices.Clone(m.waits)
	slices.Sort(sorted)
	idx := int(math.Ceil(p*float64(len(sorted))/100)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Waits returns how many individual waits completed.
func (m Metrics) Waits() int { return len(m.waits) }

// Throughput returns commits per 1000 ticks.
func (m Metrics) Throughput() float64 {
	if m.Config.Duration == 0 {
		return 0
	}
	return float64(m.Commits) * 1000 / float64(m.Config.Duration)
}

// MeanDeadlockTicks returns the average persistence of a deadlock
// episode (detection + resolution latency).
func (m Metrics) MeanDeadlockTicks() float64 {
	if m.DeadlockEpisodes == 0 {
		return 0
	}
	return float64(m.DeadlockTicks) / float64(m.DeadlockEpisodes)
}

// String prints a one-line summary.
func (m Metrics) String() string {
	return fmt.Sprintf("%-26s commits=%-6d aborts=%-5d wasted=%-6d wait=%-8d tput=%.1f",
		m.Strategy, m.Commits, m.Aborts, m.WastedOps, m.WaitTicks, m.Throughput())
}

// Factory builds a Resolver bound to a freshly created simulation, which
// supplies the lock table, the victim costs and the prevention
// timestamps.
type Factory func(s *Sim) Resolver

// op is one scripted transaction step.
type op struct {
	rid    table.ResourceID
	mode   lock.Mode
	commit bool
}

// terminal is one closed-loop client and the transaction it runs now.
// A restarted transaction gets a fresh id but keeps its priority.
type terminal struct {
	id table.TxnID
	// priority is the timestamp prevention schemes (wait-die, wound-wait)
	// order by, smaller being older: start<<32 | id for a fresh
	// transaction, the id breaking ties between transactions born on the
	// same tick. Inheriting it across restarts is what makes the schemes
	// livelock-free.
	priority     int64
	ops          int // lock requests issued (granted or not)
	restarts     int // times this logical transaction was aborted and restarted
	plan         []op
	next         int
	nextAt       int64
	blocked      bool
	blockedSince int64
	restartAt    int64 // when >0, begin a restarted transaction at this tick
}

// Sim is one simulation run.
type Sim struct {
	cfg      Config
	rng      *rand.Rand
	tb       *table.Table
	now      int64       // logical clock
	nextID   table.TxnID // the next transaction's id
	resolver Resolver
	term     []*terminal
	owner    map[table.TxnID]*terminal // live transactions only
	metrics  Metrics
	deadAt   int64 // tick the current deadlock episode began, -1 if none
}

// New builds a simulation with the given workload and strategy.
func New(cfg Config, f Factory) *Sim {
	cfg = cfg.withDefaults()
	s := &Sim{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		tb:     table.New(),
		nextID: 1,
		owner:  make(map[table.TxnID]*terminal),
		deadAt: -1,
	}
	s.resolver = f(s)
	s.metrics.Strategy = s.resolver.Name()
	s.metrics.Config = cfg
	for i := 0; i < cfg.Terminals; i++ {
		t := &terminal{}
		s.begin(t, false)
		t.nextAt = int64(i) % cfg.ThinkTime // stagger start-up
		s.term = append(s.term, t)
	}
	return s
}

// Run executes the configured duration and returns the metrics.
func Run(cfg Config, f Factory) Metrics {
	s := New(cfg, f)
	for i := int64(0); i < s.cfg.Duration; i++ {
		s.Tick()
	}
	return s.Metrics()
}

// Metrics returns the counters accumulated so far.
func (s *Sim) Metrics() Metrics { return s.metrics }

// Tick advances the simulation by one logical time unit.
func (s *Sim) Tick() {
	now := s.now

	for _, t := range s.term {
		s.step(t, now)
	}
	if now%s.cfg.Period == 0 {
		s.applyVictims(s.resolver.OnTick(now), now)
	}
	s.sweep(now)
	if s.cfg.MeasureLatency {
		s.trackDeadlock(now)
	}
	s.now++
}

// step lets one terminal act if it is due.
func (s *Sim) step(t *terminal, now int64) {
	if t.restartAt > 0 {
		if now < t.restartAt {
			return
		}
		s.begin(t, true)
		t.nextAt = now
		s.metrics.Restarts++
		if t.restarts > s.metrics.MaxRestarts {
			s.metrics.MaxRestarts = t.restarts
		}
	}
	if t.blocked || now < t.nextAt {
		return
	}
	o := t.plan[t.next]
	if o.commit {
		if _, err := s.tb.Release(t.id); err != nil {
			panic("sim: commit failed: " + err.Error())
		}
		delete(s.owner, t.id)
		s.metrics.Commits++
		s.begin(t, false)
		t.nextAt = now + s.cfg.ThinkTime
		return
	}
	t.ops++
	granted, err := s.tb.Request(t.id, o.rid, o.mode)
	if err != nil {
		panic("sim: request failed: " + err.Error())
	}
	t.next++
	if granted {
		t.nextAt = now + s.cfg.ThinkTime
		return
	}
	t.blocked = true
	t.blockedSince = now
	s.applyVictims(s.resolver.OnBlocked(t.id, now), now)
}

// begin starts a transaction on a terminal: a fresh one, or with restart
// the successor of the one a resolver aborted, which inherits its
// priority and counts one more restart.
func (s *Sim) begin(t *terminal, restart bool) {
	t.id = s.nextID
	s.nextID++
	if restart {
		t.restarts++
	} else {
		t.restarts = 0
		t.priority = s.now<<32 | int64(t.id)
	}
	t.ops = 0
	t.plan = s.makePlan()
	t.next = 0
	t.blocked = false
	t.restartAt = 0
	s.owner[t.id] = t
}

// lockCost prices a victim by the locks it holds, +1 so that no cost is
// 0: the first of Section 5's metrics, "number of locks it holds".
func (s *Sim) lockCost(id table.TxnID) float64 {
	return float64(len(s.tb.Held(id)) + 1)
}

// priority returns id's prevention timestamp (smaller is older);
// transactions no terminal is running rank newest.
func (s *Sim) priority(id table.TxnID) int64 {
	if t := s.owner[id]; t != nil {
		return t.priority
	}
	return 1 << 62
}

// makePlan scripts one transaction: TxnLength lock requests followed by
// a commit, with optional upgrade (conversion) steps.
func (s *Sim) makePlan() []op {
	cfg := s.cfg
	plan := make([]op, 0, cfg.TxnLength+1)
	var reads []table.ResourceID
	for i := 0; i < cfg.TxnLength; i++ {
		rid := s.pickResource()
		mode := lock.S
		switch {
		case len(reads) > 0 && s.rng.Float64() < cfg.ConvFrac:
			// Upgrade an earlier read: a lock conversion.
			rid = reads[s.rng.Intn(len(reads))]
			mode = lock.X
		case s.rng.Float64() < cfg.WriteFrac:
			mode = lock.X
		default:
			reads = append(reads, rid)
		}
		if cfg.MGLModes && s.rng.Float64() < 0.4 {
			switch mode {
			case lock.S:
				mode = lock.IS
			case lock.X:
				if s.rng.Float64() < 0.3 {
					mode = lock.SIX
				} else {
					mode = lock.IX
				}
			}
		}
		plan = append(plan, op{rid: rid, mode: mode})
	}
	return append(plan, op{commit: true})
}

// pickResource samples the resource pool with the configured hot spot.
func (s *Sim) pickResource() table.ResourceID {
	cfg := s.cfg
	hot := int(float64(cfg.Resources) * cfg.HotFrac)
	if hot < 1 {
		hot = 1
	}
	var n int
	if s.rng.Float64() < cfg.HotProb {
		n = s.rng.Intn(hot)
	} else {
		n = s.rng.Intn(cfg.Resources)
	}
	return table.ResourceID(fmt.Sprintf("R%d", n))
}

// applyVictims reconciles resolver-aborted transactions with the
// terminals that own them.
func (s *Sim) applyVictims(victims []table.TxnID, now int64) {
	for _, v := range victims {
		s.resolver.Forget(v)
		t := s.owner[v]
		if t == nil {
			continue
		}
		delete(s.owner, v)
		s.metrics.Aborts++
		s.metrics.WastedOps += t.ops
		if t.blocked {
			s.metrics.WaitTicks += now - t.blockedSince
			s.metrics.waits = append(s.metrics.waits, now-t.blockedSince)
			t.blocked = false
		}
		t.restartAt = now + s.cfg.Restart
	}
	if pr, ok := s.resolver.(interface{ Park() ParkStats }); ok {
		st := pr.Park()
		s.metrics.Repositionings = st.Repositionings
		s.metrics.SalvagedVictims = st.Salvaged
		s.metrics.ResolverEdgeVisit = st.EdgeVisits
	}
}

// sweep notices grants: blocked terminals whose transactions the table
// no longer blocks resume at the next think boundary.
func (s *Sim) sweep(now int64) {
	for _, t := range s.term {
		if !t.blocked || s.tb.Blocked(t.id) {
			continue
		}
		t.blocked = false
		s.metrics.WaitTicks += now - t.blockedSince
		s.metrics.waits = append(s.metrics.waits, now-t.blockedSince)
		t.nextAt = now + s.cfg.ThinkTime
		s.resolver.Forget(t.id)
	}
}

// trackDeadlock measures deadlock persistence against the oracle.
func (s *Sim) trackDeadlock(now int64) {
	dead := twbg.Deadlocked(s.tb)
	switch {
	case dead && s.deadAt < 0:
		s.deadAt = now
		s.metrics.DeadlockEpisodes++
	case !dead && s.deadAt >= 0:
		s.metrics.DeadlockTicks += now - s.deadAt
		s.deadAt = -1
	}
}
