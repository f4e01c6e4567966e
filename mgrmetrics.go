package hwtwbg

import (
	"fmt"
	"io"
	"time"

	"hwtwbg/internal/lock"
	"hwtwbg/internal/table"
	"hwtwbg/journal"
	"hwtwbg/metrics"
)

// shardMetrics is one shard's padded block of lock-free counters and
// histograms. Each shard points at its own separately allocated block
// (plus a tail pad), so hot-path increments by different cores never
// share a cache line across shards; within a shard the updates ride on
// the shard mutex's existing traffic. All fields are atomic, so readers
// (MetricsSnapshot, ShardStats) never take shard locks.
//
// hwlint:atomics-only — fields may only be touched via their methods.
type shardMetrics struct {
	// Grants are counted once, by mode and by route; every other grant
	// count (Grants, Immediate, GrantsByMode) is a sum of these, so the
	// sums agree by construction and a grant costs one atomic add.
	immediateByMode [len(lock.Modes)]metrics.Counter // granted without blocking, indexed by Mode
	handoffByMode   [len(lock.Modes)]metrics.Counter // granted by a release or the detector, by effective Mode
	fresh           metrics.Counter                  // first-time requests
	conversions     metrics.Counter                  // re-requests by an existing holder
	blocked         metrics.Counter                  // requests that enqueued
	waitAborts      metrics.Counter                  // waits ended by abort/cancel instead of grant
	tryRefused      metrics.Counter                  // TryLock refusals (would have blocked)
	mutexAcquires   metrics.Counter                  // hot-path shard-mutex rounds (lock/commit/abort/wake re-checks)
	queueDepth      metrics.Histogram                // depth in line at enqueue (incl. self)
	wait            metrics.Histogram                // ns blocked until grant (blocked requests only)
	grant           metrics.Histogram                // ns from the request to its grant stamp, every granted request
	_               [64]byte
}

// requestTally says which request counters a table round touched: one
// request (Lock, TryLock) or a whole shard round
// (LockAll). Each touched counter then takes exactly one Add.
type requestTally struct {
	fresh, conversions, blocked uint64
	granted                     [len(lock.Modes)]uint64 // granted at once, by mode
}

// note tallies one request's outcome.
func (c *requestTally) note(res table.RequestResult, mode Mode) {
	if res.Conversion {
		c.conversions++
	} else {
		c.fresh++
	}
	if res.Granted {
		c.granted[mode]++
	} else {
		c.blocked++
	}
}

// count adds a tally into the counters.
func (sm *shardMetrics) count(c *requestTally) {
	if c.fresh > 0 {
		sm.fresh.Add(c.fresh)
	}
	if c.conversions > 0 {
		sm.conversions.Add(c.conversions)
	}
	if c.blocked > 0 {
		sm.blocked.Add(c.blocked)
	}
	for m, n := range c.granted {
		if n > 0 {
			sm.immediateByMode[m].Add(n)
		}
	}
}

// grants sums the shard's grant counters: immediate and hand-off.
func (sm *shardMetrics) grants() uint64 {
	var n uint64
	for m := range sm.immediateByMode {
		n += sm.immediateByMode[m].Load() + sm.handoffByMode[m].Load()
	}
	return n
}

// ShardMetricsSnapshot is a plain-value copy of one shard's counters
// (or of their sum, in MetricsSnapshot.Total).
type ShardMetricsSnapshot struct {
	Grants        uint64                    `json:"grants"`
	GrantsByMode  map[string]uint64         `json:"grants_by_mode"`
	Fresh         uint64                    `json:"fresh_requests"`
	Conversions   uint64                    `json:"conversion_requests"`
	Immediate     uint64                    `json:"immediate_grants"`
	Blocked       uint64                    `json:"blocked_requests"`
	WaitAborts    uint64                    `json:"wait_aborts"`
	TryRefused    uint64                    `json:"trylock_refused"`
	MutexAcquires uint64                    `json:"mutex_acquires"`
	QueueDepth    metrics.HistogramSnapshot `json:"queue_depth_at_enqueue"`
	WaitNs        metrics.HistogramSnapshot `json:"lock_wait_ns"`
	// GrantNs is time_to_grant: from the request to the stamp of its
	// grant, for every granted request. An immediate grant is stamped
	// by the clock read that starts it when the shard mutex is free, so
	// it observes 0; only a contended mutex or a wait in line shows.
	GrantNs metrics.HistogramSnapshot `json:"time_to_grant_ns"`
}

// merge adds o into s.
func (s *ShardMetricsSnapshot) merge(o ShardMetricsSnapshot) {
	s.Grants += o.Grants
	for k, v := range o.GrantsByMode {
		s.GrantsByMode[k] += v
	}
	s.Fresh += o.Fresh
	s.Conversions += o.Conversions
	s.Immediate += o.Immediate
	s.Blocked += o.Blocked
	s.WaitAborts += o.WaitAborts
	s.TryRefused += o.TryRefused
	s.MutexAcquires += o.MutexAcquires
	s.QueueDepth.Merge(o.QueueDepth)
	s.WaitNs.Merge(o.WaitNs)
	s.GrantNs.Merge(o.GrantNs)
}

// snapshot copies the atomic counters into plain values.
func (sm *shardMetrics) snapshot() ShardMetricsSnapshot {
	s := ShardMetricsSnapshot{
		GrantsByMode:  make(map[string]uint64, len(lock.Modes)),
		Fresh:         sm.fresh.Load(),
		Conversions:   sm.conversions.Load(),
		Blocked:       sm.blocked.Load(),
		WaitAborts:    sm.waitAborts.Load(),
		TryRefused:    sm.tryRefused.Load(),
		MutexAcquires: sm.mutexAcquires.Load(),
		QueueDepth:    sm.queueDepth.Snapshot(),
		WaitNs:        sm.wait.Snapshot(),
		GrantNs:       sm.grant.Snapshot(),
	}
	for _, m := range lock.Modes {
		imm := sm.immediateByMode[m].Load()
		v := imm + sm.handoffByMode[m].Load()
		s.Immediate += imm
		s.Grants += v
		if v > 0 {
			s.GrantsByMode[m.String()] = v
		}
	}
	return s
}

// PhaseTotals is the detector's wall clock per phase: one
// activation's in its ActivationReport, and summed over the manager's
// lifetime in MetricsSnapshot.Phases. Acquire is waiting for shard
// locks, Copy the dirty scan, snapshot copy-out and merge, Build Step 1
// (TST construction), Search Step 2 (the directed walk with TDR-1/TDR-2
// resolution), Resolve Step 3 (abort confirmation and queue
// rescheduling) and Validate the live re-verification and application
// of the resolutions, wakeups included. Wake is always zero.
type PhaseTotals struct {
	Acquire  time.Duration `json:"acquire_ns"`
	Copy     time.Duration `json:"copy_ns"`
	Build    time.Duration `json:"build_ns"`
	Search   time.Duration `json:"search_ns"`
	Resolve  time.Duration `json:"resolve_ns"`
	Validate time.Duration `json:"validate_ns"`
	Wake     time.Duration `json:"wake_ns"`
}

func (p *PhaseTotals) add(q PhaseTotals) {
	p.Acquire += q.Acquire
	p.Copy += q.Copy
	p.Build += q.Build
	p.Search += q.Search
	p.Resolve += q.Resolve
	p.Validate += q.Validate
	p.Wake += q.Wake
}

// MetricsSnapshot is one consistent-enough view of every metric the
// manager keeps: per-shard counter blocks, their sum, the detector's
// lifetime stats and the cumulative phase breakdown. Counters are read
// atomically without stopping the world, so a snapshot taken under load
// may straddle in-flight operations, but no counter ever reads
// backwards across snapshots.
type MetricsSnapshot struct {
	Shards   []ShardMetricsSnapshot `json:"shards"`
	Total    ShardMetricsSnapshot   `json:"total"`
	Detector Stats                  `json:"detector"`
	Phases   PhaseTotals            `json:"detector_phases"`
	// Journal sums the flight recorder's ring counters (all zero when
	// the journal is disabled).
	Journal journal.RingStats `json:"journal"`
	// CostModel is the detection-scheduling cost model's state: the
	// estimated deadlock formation rate, the measured detection and
	// persistence costs, and the cost-minimizing period they imply (see
	// CostModelState).
	CostModel CostModelState `json:"cost_model"`
	// Period is the live detection interval: Options.Period, or the
	// self-tuned value under Scheduling "costmodel"; zero when the
	// background detector is disabled.
	Period time.Duration `json:"period_ns"`
}

// MetricsSnapshot collects the current metrics without taking any shard
// lock (safe to call from an OnVictim hook or a debug endpoint at any
// rate).
func (m *Manager) MetricsSnapshot() MetricsSnapshot {
	snap := MetricsSnapshot{
		Shards: make([]ShardMetricsSnapshot, len(m.shards)),
		Total:  ShardMetricsSnapshot{GrantsByMode: make(map[string]uint64, len(lock.Modes))},
	}
	for i, s := range m.shards {
		snap.Shards[i] = s.met.snapshot()
		snap.Total.merge(snap.Shards[i])
	}
	m.mu.Lock()
	snap.Detector = m.stats
	snap.Phases = m.phases
	m.mu.Unlock()
	if m.jr != nil {
		snap.Journal = m.jr.Stats()
	}
	snap.CostModel = m.costModelState()
	snap.Period = m.currentPeriod()
	return snap
}

// Metric is one scalar fact of a MetricsSnapshot with every name it
// goes by. Metrics lists them: the lockservice STATS reply and TAIL
// heartbeat, and WritePrometheus, render from that table, and the
// lockservice client parses through it, so a counter is added to all of
// them by adding a row.
type Metric struct {
	Stat string // STATS key; "" when STATS omits the fact
	HB   string // TAIL heartbeat key; "" when the heartbeat omits it
	// Prom and Help name the /metrics series; Prom is "" when /metrics
	// omits the fact or renders it as a labelled family of its own.
	Prom, Help string
	Gauge      bool // Prometheus TYPE gauge; otherwise counter

	// field points at the fact in a snapshot: an *int, *uint64,
	// *time.Duration or *float64. Reads and writes both go through it.
	field func(*MetricsSnapshot) any
	group promGroup
}

// promGroup places a row's /metrics sample among the labelled families
// WritePrometheus writes itself; rows keep table order within a group.
type promGroup uint8

const (
	promRequests   promGroup = iota // after the request and grant-by-mode families
	promDetector                    // after the latency histograms
	promScheduling                  // after the detector phase family
)

// Wire returns the fact as the STATS reply and the TAIL heartbeat carry
// it: an integer, durations in nanoseconds and rates (float64 facts) in
// millionths.
func (d *Metric) Wire(s *MetricsSnapshot) int64 {
	switch p := d.field(s).(type) {
	case *int:
		return int64(*p)
	case *uint64:
		return int64(*p)
	case *time.Duration:
		return p.Nanoseconds()
	case *float64:
		return int64(*p * 1e6)
	}
	panic("hwtwbg: Metric field of unsupported type")
}

// SetWire stores a Wire value into s.
func (d *Metric) SetWire(s *MetricsSnapshot, n int64) {
	switch p := d.field(s).(type) {
	case *int:
		*p = int(n)
	case *uint64:
		*p = uint64(n)
	case *time.Duration:
		*p = time.Duration(n)
	case *float64:
		*p = float64(n) * 1e-6
	default:
		panic("hwtwbg: Metric field of unsupported type")
	}
}

// Value returns the fact as /metrics exposes it: durations in seconds.
func (d *Metric) Value(s *MetricsSnapshot) float64 {
	switch p := d.field(s).(type) {
	case *int:
		return float64(*p)
	case *uint64:
		return float64(*p)
	case *time.Duration:
		return p.Seconds()
	case *float64:
		return *p
	}
	panic("hwtwbg: Metric field of unsupported type")
}

// Metrics is the descriptor table, in STATS order.
var Metrics = []Metric{
	{Prom: "hwtwbg_immediate_grants_total", Help: "Requests granted without blocking.",
		field: func(s *MetricsSnapshot) any { return &s.Total.Immediate }},
	{Prom: "hwtwbg_blocked_requests_total", Help: "Requests that enqueued.",
		field: func(s *MetricsSnapshot) any { return &s.Total.Blocked }},
	{Prom: "hwtwbg_wait_aborts_total", Help: "Blocked waits ended by abort or cancellation.",
		field: func(s *MetricsSnapshot) any { return &s.Total.WaitAborts }},
	{Prom: "hwtwbg_trylock_refused_total", Help: "TryLock refusals (would have blocked).",
		field: func(s *MetricsSnapshot) any { return &s.Total.TryRefused }},
	{Prom: "hwtwbg_shard_mutex_acquires_total", Help: "Hot-path shard-mutex acquisition rounds.",
		field: func(s *MetricsSnapshot) any { return &s.Total.MutexAcquires }},

	{Stat: "runs", HB: "hb_runs", Prom: "hwtwbg_detector_runs_total", Help: "Detector activations.",
		field: func(s *MetricsSnapshot) any { return &s.Detector.Runs }, group: promDetector},
	{Stat: "cycles", HB: "hb_cycles", Prom: "hwtwbg_detector_cycles_total", Help: "Cycles found and resolved (the paper's c', summed).",
		field: func(s *MetricsSnapshot) any { return &s.Detector.CyclesSearched }, group: promDetector},
	{Stat: "aborted", HB: "hb_aborted", Prom: "hwtwbg_detector_victims_total", Help: "Transactions aborted by the detector (TDR-1).",
		field: func(s *MetricsSnapshot) any { return &s.Detector.Aborted }, group: promDetector},
	{Stat: "repositioned", Prom: "hwtwbg_detector_repositions_total", Help: "Deadlocks resolved without any abort (TDR-2).",
		field: func(s *MetricsSnapshot) any { return &s.Detector.Repositioned }, group: promDetector},
	{Stat: "salvaged", Prom: "hwtwbg_detector_salvaged_total", Help: "Victims rescued at Step 3.",
		field: func(s *MetricsSnapshot) any { return &s.Detector.Salvaged }, group: promDetector},
	{Stat: "hold_last_ns", Prom: "hwtwbg_detector_shard_hold_last_seconds", Gauge: true,
		Help:  "Most recent activation's longest single-shard copy hold (its worst grant-path stall).",
		field: func(s *MetricsSnapshot) any { return &s.Detector.ShardHoldLast }, group: promScheduling},
	{Stat: "hold_max_ns", Prom: "hwtwbg_detector_shard_hold_max_seconds", Gauge: true, Help: "Worst single-shard copy hold of any activation.",
		field: func(s *MetricsSnapshot) any { return &s.Detector.ShardHoldMax }, group: promScheduling},
	// /metrics breaks grants down by shard, a family of its own.
	{Stat: "shard_grants", HB: "hb_grants",
		field: func(s *MetricsSnapshot) any { return &s.Total.Grants }},
	{Stat: "false_cycles", Prom: "hwtwbg_detector_false_cycles_total", Help: "Resolutions dropped at validation (torn-snapshot artifacts).",
		field: func(s *MetricsSnapshot) any { return &s.Detector.FalseCycles }, group: promDetector},
	{Stat: "validations", Prom: "hwtwbg_detector_validations_total", Help: "Validate-then-act attempts (applied + dropped).",
		field: func(s *MetricsSnapshot) any { return &s.Detector.Validations }, group: promDetector},
	{Stat: "period_ns", HB: "hb_period_ns", Prom: "hwtwbg_detector_period_seconds", Gauge: true,
		Help:  "Live detection interval (self-tuned when Scheduling is costmodel).",
		field: func(s *MetricsSnapshot) any { return &s.Period }, group: promScheduling},

	{Stat: "cm_samples", Prom: "hwtwbg_costmodel_samples_total", Help: "Detector activations folded into the scheduling cost model.",
		field: func(s *MetricsSnapshot) any { return &s.CostModel.Samples }, group: promScheduling},
	{Stat: "cm_deadlocks", Prom: "hwtwbg_costmodel_deadlocks_total", Help: "Deadlock cycles observed by the scheduling cost model.",
		field: func(s *MetricsSnapshot) any { return &s.CostModel.Deadlocks }, group: promScheduling},
	{Prom: "hwtwbg_costmodel_victim_waits_total", Help: "Victim wait-span samples folded into the persistence-cost estimate.",
		field: func(s *MetricsSnapshot) any { return &s.CostModel.VictimWaits }, group: promScheduling},
	{Stat: "cm_rate_uhz", Prom: "hwtwbg_costmodel_rate_hz", Gauge: true, Help: "Estimated deadlock formation rate (exponentially time-decayed).",
		field: func(s *MetricsSnapshot) any { return &s.CostModel.RatePerSec }, group: promScheduling},
	{Stat: "cm_detect_ns", Prom: "hwtwbg_costmodel_detect_cost_seconds", Gauge: true, Help: "EWMA cost of one detector activation.",
		field: func(s *MetricsSnapshot) any { return &s.CostModel.DetectCost }, group: promScheduling},
	{Stat: "cm_persist_ns", Prom: "hwtwbg_costmodel_persist_cost_seconds", Gauge: true,
		Help:  "EWMA deadlock victim wait span (persistence cost per caught deadlock).",
		field: func(s *MetricsSnapshot) any { return &s.CostModel.PersistCost }, group: promScheduling},
	{Prom: "hwtwbg_costmodel_stall_rate", Gauge: true, Help: "Estimated stalled-transaction accrual rate of a persisting deadlock.",
		field: func(s *MetricsSnapshot) any { return &s.CostModel.StallRate }, group: promScheduling},
	{Stat: "cm_period_ns", HB: "hb_cm_period_ns", Prom: "hwtwbg_costmodel_period_seconds", Gauge: true,
		Help:  "Cost-minimizing detection period sqrt(2D/(lambda*rho)), clamped.",
		field: func(s *MetricsSnapshot) any { return &s.CostModel.Period }, group: promScheduling},

	{Stat: "journal_emitted", HB: "hb_emitted", Prom: "hwtwbg_journal_records_total", Help: "Flight-recorder records emitted across all rings.",
		field: func(s *MetricsSnapshot) any { return &s.Journal.Emitted }, group: promScheduling},
	{Stat: "journal_overwritten", HB: "hb_overwritten", Prom: "hwtwbg_journal_overwritten_total",
		Help:  "Flight-recorder records overwritten before any snapshot saw them.",
		field: func(s *MetricsSnapshot) any { return &s.Journal.Overwritten }, group: promScheduling},
	{Prom: "hwtwbg_journal_capacity_records", Gauge: true, Help: "Flight-recorder capacity in records, summed across rings.",
		field: func(s *MetricsSnapshot) any { return &s.Journal.Cap }, group: promScheduling},

	{Stat: "shards_copied", Prom: "hwtwbg_detector_shards_copied_total", Help: "Shards copied into the incremental snapshot (dirty at activation).",
		field: func(s *MetricsSnapshot) any { return &s.Detector.ShardsCopied }, group: promDetector},
	{Stat: "shards_skipped", Prom: "hwtwbg_detector_shards_skipped_total", Help: "Shards skipped by the incremental snapshot (clean since last copy).",
		field: func(s *MetricsSnapshot) any { return &s.Detector.ShardsSkipped }, group: promDetector},
}

// WritePrometheus writes the current metrics in Prometheus text
// exposition format: the rows of Metrics that name a series, plus the
// labelled families — requests by kind, grants by mode and by shard,
// the detector's per-phase wall clock — and the wait-latency,
// time-to-grant and queue-depth histograms (aggregated across shards).
func (m *Manager) WritePrometheus(w io.Writer) error {
	snap := m.MetricsSnapshot()
	bw := &errWriter{w: w}
	scalars := func(g promGroup) {
		for i := range Metrics {
			d := &Metrics[i]
			if d.Prom == "" || d.group != g {
				continue
			}
			if d.Gauge {
				metrics.WriteGauge(bw, d.Prom, d.Help, nil, d.Value(&snap))
			} else {
				metrics.WriteCounter(bw, d.Prom, d.Help, nil, uint64(d.Wire(&snap)))
			}
		}
	}

	metrics.WriteHeader(bw, "hwtwbg_lock_requests_total", "Lock requests by kind.", "counter")
	metrics.WriteCounterSample(bw, "hwtwbg_lock_requests_total", map[string]string{"kind": "fresh"}, snap.Total.Fresh)
	metrics.WriteCounterSample(bw, "hwtwbg_lock_requests_total", map[string]string{"kind": "conversion"}, snap.Total.Conversions)

	metrics.WriteHeader(bw, "hwtwbg_lock_grants_total", "Lock grants by mode.", "counter")
	for _, mode := range lock.Modes {
		if v, ok := snap.Total.GrantsByMode[mode.String()]; ok {
			metrics.WriteCounterSample(bw, "hwtwbg_lock_grants_total", map[string]string{"mode": mode.String()}, v)
		}
	}
	scalars(promRequests)

	metrics.WriteHeader(bw, "hwtwbg_shard_grants_total", "Lock grants per shard.", "counter")
	for i, s := range snap.Shards {
		metrics.WriteCounterSample(bw, "hwtwbg_shard_grants_total", map[string]string{"shard": fmt.Sprint(i)}, s.Grants)
	}

	metrics.WriteHistogram(bw, "hwtwbg_lock_wait_seconds", "Time blocked before grant (blocked requests only).", nil, snap.Total.WaitNs, 1e-9)
	metrics.WriteHistogram(bw, "hwtwbg_time_to_grant_seconds", "Request-to-grant latency, every granted request; 0 for an immediate grant on a free shard mutex.", nil, snap.Total.GrantNs, 1e-9)
	metrics.WriteHistogram(bw, "hwtwbg_queue_depth_enqueue", "Requests in line at enqueue, including the newcomer.", nil, snap.Total.QueueDepth, 1)
	scalars(promDetector)

	metrics.WriteHeader(bw, "hwtwbg_detector_phase_seconds_total", "Cumulative detector wall clock per phase.", "counter")
	for _, ph := range []struct {
		name string
		d    time.Duration
	}{
		{"acquire", snap.Phases.Acquire},
		{"copy", snap.Phases.Copy},
		{"build", snap.Phases.Build},
		{"search", snap.Phases.Search},
		{"resolve", snap.Phases.Resolve},
		{"validate", snap.Phases.Validate},
		{"wake", snap.Phases.Wake},
	} {
		fmt.Fprintf(bw, "hwtwbg_detector_phase_seconds_total{phase=%q} %.9g\n", ph.name, ph.d.Seconds())
	}
	scalars(promScheduling)
	return bw.err
}

// errWriter latches the first write error so the exposition code can
// stay free of per-line error plumbing.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, err
}
