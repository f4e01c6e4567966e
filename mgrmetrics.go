package hwtwbg

import (
	"encoding/json"
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
	grants        metrics.Counter                  // every grant: immediate and hand-off
	grantsByMode  [len(lock.Modes)]metrics.Counter // indexed by Mode
	fresh         metrics.Counter                  // first-time requests
	conversions   metrics.Counter                  // re-requests by an existing holder
	immediate     metrics.Counter                  // requests granted without blocking
	blocked       metrics.Counter                  // requests that enqueued
	waitAborts    metrics.Counter                  // waits ended by abort/cancel instead of grant
	tryRefused    metrics.Counter                  // TryLock refusals (would have blocked)
	mutexAcquires metrics.Counter                  // hot-path shard-mutex rounds (lock/commit/abort/wake re-checks)
	flatCombined  metrics.Counter                  // published requests applied by a combiner's drain
	queueDepth    metrics.Histogram                // depth in line at enqueue (incl. self)
	wait          metrics.Histogram                // ns blocked until grant (blocked requests only)
	grant         metrics.Histogram                // ns request→grant, every granted request
	_             [64]byte
}

// requestTally says which request counters a table round touched: one
// request (Lock, TryLock, applyPublished) or a whole shard round
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
	var grants uint64
	for m, n := range c.granted {
		if n > 0 {
			sm.grantsByMode[m].Add(n)
			grants += n
		}
	}
	if grants > 0 {
		sm.grants.Add(grants)
		sm.immediate.Add(grants)
	}
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
	FlatCombined  uint64                    `json:"flat_combined"`
	QueueDepth    metrics.HistogramSnapshot `json:"queue_depth_at_enqueue"`
	WaitNs        metrics.HistogramSnapshot `json:"lock_wait_ns"`
	GrantNs       metrics.HistogramSnapshot `json:"time_to_grant_ns"`
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
	s.FlatCombined += o.FlatCombined
	s.QueueDepth.Merge(o.QueueDepth)
	s.WaitNs.Merge(o.WaitNs)
	s.GrantNs.Merge(o.GrantNs)
}

// snapshot copies the atomic counters into plain values.
func (sm *shardMetrics) snapshot() ShardMetricsSnapshot {
	s := ShardMetricsSnapshot{
		Grants:        sm.grants.Load(),
		GrantsByMode:  make(map[string]uint64, len(lock.Modes)),
		Fresh:         sm.fresh.Load(),
		Conversions:   sm.conversions.Load(),
		Immediate:     sm.immediate.Load(),
		Blocked:       sm.blocked.Load(),
		WaitAborts:    sm.waitAborts.Load(),
		TryRefused:    sm.tryRefused.Load(),
		MutexAcquires: sm.mutexAcquires.Load(),
		FlatCombined:  sm.flatCombined.Load(),
		QueueDepth:    sm.queueDepth.Snapshot(),
		WaitNs:        sm.wait.Snapshot(),
		GrantNs:       sm.grant.Snapshot(),
	}
	for _, m := range lock.Modes {
		if v := sm.grantsByMode[m].Load(); v > 0 {
			s.GrantsByMode[m.String()] = v
		}
	}
	return s
}

// PhaseTotals accumulates the detector's per-phase wall clock over the
// manager's lifetime: Acquire (waiting for shard locks), Copy (dirty
// scan, snapshot copy-out and merge), Build (Step 1, TST construction),
// Search (Step 2, the directed walk with TDR-1/TDR-2 resolution),
// Resolve (Step 3, abort confirmation and queue rescheduling) and
// Validate (live re-verification and application of the resolutions,
// wakeups included). Wake mirrors ActivationReport.Wake and stays zero.
//
// Every tag here must name an ActivationReport tag (a renamed phase
// would silently decouple the accumulator from the per-activation
// report); wireschema enforces the subset.
//
//hwlint:wire parse actphase subset
type PhaseTotals struct {
	Acquire  time.Duration `json:"acquire_ns"`
	Copy     time.Duration `json:"copy_ns"`
	Build    time.Duration `json:"build_ns"`
	Search   time.Duration `json:"search_ns"`
	Resolve  time.Duration `json:"resolve_ns"`
	Validate time.Duration `json:"validate_ns"`
	Wake     time.Duration `json:"wake_ns"`
}

func (p *PhaseTotals) add(rep ActivationReport) {
	p.Acquire += rep.Acquire
	p.Copy += rep.Copy
	p.Build += rep.Build
	p.Search += rep.Search
	p.Resolve += rep.Resolve
	p.Validate += rep.Validate
	p.Wake += rep.Wake
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
	// CostModel is the detection-scheduling cost model's state (see
	// Manager.CostModel).
	CostModel CostModelState `json:"cost_model"`
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
	snap.CostModel = m.CostModel()
	return snap
}

// WritePrometheus writes the current metrics in Prometheus text
// exposition format: request/grant counters (aggregate per mode and
// per shard), the wait-latency, time-to-grant and queue-depth
// histograms (aggregated across shards), and the detector's lifetime
// counters with the per-phase stop-the-world breakdown.
func (m *Manager) WritePrometheus(w io.Writer) error {
	snap := m.MetricsSnapshot()
	bw := &errWriter{w: w}

	metrics.WriteHeader(bw, "hwtwbg_lock_requests_total", "Lock requests by kind.", "counter")
	metrics.WriteCounterSample(bw, "hwtwbg_lock_requests_total", map[string]string{"kind": "fresh"}, snap.Total.Fresh)
	metrics.WriteCounterSample(bw, "hwtwbg_lock_requests_total", map[string]string{"kind": "conversion"}, snap.Total.Conversions)

	metrics.WriteHeader(bw, "hwtwbg_lock_grants_total", "Lock grants by mode.", "counter")
	for _, mode := range lock.Modes {
		if v, ok := snap.Total.GrantsByMode[mode.String()]; ok {
			metrics.WriteCounterSample(bw, "hwtwbg_lock_grants_total", map[string]string{"mode": mode.String()}, v)
		}
	}

	metrics.WriteCounter(bw, "hwtwbg_immediate_grants_total", "Requests granted without blocking.", nil, snap.Total.Immediate)
	metrics.WriteCounter(bw, "hwtwbg_blocked_requests_total", "Requests that enqueued.", nil, snap.Total.Blocked)
	metrics.WriteCounter(bw, "hwtwbg_wait_aborts_total", "Blocked waits ended by abort or cancellation.", nil, snap.Total.WaitAborts)
	metrics.WriteCounter(bw, "hwtwbg_trylock_refused_total", "TryLock refusals (would have blocked).", nil, snap.Total.TryRefused)
	metrics.WriteCounter(bw, "hwtwbg_shard_mutex_acquires_total", "Hot-path shard-mutex acquisition rounds.", nil, snap.Total.MutexAcquires)
	metrics.WriteCounter(bw, "hwtwbg_flat_combined_total", "Lock requests applied by another goroutine's flat-combining drain.", nil, snap.Total.FlatCombined)

	metrics.WriteHeader(bw, "hwtwbg_shard_grants_total", "Lock grants per shard.", "counter")
	for i, s := range snap.Shards {
		metrics.WriteCounterSample(bw, "hwtwbg_shard_grants_total", map[string]string{"shard": fmt.Sprint(i)}, s.Grants)
	}

	metrics.WriteHistogram(bw, "hwtwbg_lock_wait_seconds", "Time blocked before grant (blocked requests only).", nil, snap.Total.WaitNs, 1e-9)
	metrics.WriteHistogram(bw, "hwtwbg_time_to_grant_seconds", "Request-to-grant latency, every granted request.", nil, snap.Total.GrantNs, 1e-9)
	metrics.WriteHistogram(bw, "hwtwbg_queue_depth_enqueue", "Requests in line at enqueue, including the newcomer.", nil, snap.Total.QueueDepth, 1)

	st := snap.Detector
	metrics.WriteCounter(bw, "hwtwbg_detector_runs_total", "Detector activations.", nil, uint64(st.Runs))
	metrics.WriteCounter(bw, "hwtwbg_detector_cycles_total", "Cycles found and resolved (the paper's c', summed).", nil, uint64(st.CyclesSearched))
	metrics.WriteCounter(bw, "hwtwbg_detector_victims_total", "Transactions aborted by the detector (TDR-1).", nil, uint64(st.Aborted))
	metrics.WriteCounter(bw, "hwtwbg_detector_repositions_total", "Deadlocks resolved without any abort (TDR-2).", nil, uint64(st.Repositioned))
	metrics.WriteCounter(bw, "hwtwbg_detector_salvaged_total", "Victims rescued at Step 3.", nil, uint64(st.Salvaged))
	metrics.WriteCounter(bw, "hwtwbg_detector_false_cycles_total", "Resolutions dropped at validation (torn-snapshot artifacts).", nil, uint64(st.FalseCycles))
	metrics.WriteCounter(bw, "hwtwbg_detector_validations_total", "Validate-then-act attempts (applied + dropped).", nil, uint64(st.Validations))
	metrics.WriteCounter(bw, "hwtwbg_detector_shards_copied_total", "Shards copied into the incremental snapshot (dirty at activation).", nil, uint64(st.ShardsCopied))
	metrics.WriteCounter(bw, "hwtwbg_detector_shards_skipped_total", "Shards skipped by the incremental snapshot (clean since last copy).", nil, uint64(st.ShardsSkipped))

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
	metrics.WriteGauge(bw, "hwtwbg_detector_shard_hold_last_seconds", "Most recent activation's longest single-shard copy hold (its worst grant-path stall).", nil, st.ShardHoldLast.Seconds())
	metrics.WriteGauge(bw, "hwtwbg_detector_shard_hold_max_seconds", "Worst single-shard copy hold of any activation.", nil, st.ShardHoldMax.Seconds())
	metrics.WriteGauge(bw, "hwtwbg_detector_period_seconds", "Live detection interval (self-tuned when Scheduling is costmodel).", nil, m.CurrentPeriod().Seconds())

	cm := snap.CostModel
	metrics.WriteCounter(bw, "hwtwbg_costmodel_samples_total", "Detector activations folded into the scheduling cost model.", nil, uint64(cm.Samples))
	metrics.WriteCounter(bw, "hwtwbg_costmodel_deadlocks_total", "Deadlock cycles observed by the scheduling cost model.", nil, cm.Deadlocks)
	metrics.WriteCounter(bw, "hwtwbg_costmodel_victim_waits_total", "Victim wait-span samples folded into the persistence-cost estimate.", nil, cm.VictimWaits)
	metrics.WriteGauge(bw, "hwtwbg_costmodel_rate_hz", "Estimated deadlock formation rate (exponentially time-decayed).", nil, cm.RatePerSec)
	metrics.WriteGauge(bw, "hwtwbg_costmodel_detect_cost_seconds", "EWMA cost of one detector activation.", nil, cm.DetectCost.Seconds())
	metrics.WriteGauge(bw, "hwtwbg_costmodel_persist_cost_seconds", "EWMA deadlock victim wait span (persistence cost per caught deadlock).", nil, cm.PersistCost.Seconds())
	metrics.WriteGauge(bw, "hwtwbg_costmodel_stall_rate", "Estimated stalled-transaction accrual rate of a persisting deadlock.", nil, cm.StallRate)
	metrics.WriteGauge(bw, "hwtwbg_costmodel_period_seconds", "Cost-minimizing detection period sqrt(2D/(lambda*rho)), clamped.", nil, cm.Period.Seconds())

	js := snap.Journal
	metrics.WriteCounter(bw, "hwtwbg_journal_records_total", "Flight-recorder records emitted across all rings.", nil, js.Emitted)
	metrics.WriteCounter(bw, "hwtwbg_journal_overwritten_total", "Flight-recorder records overwritten before any snapshot saw them.", nil, js.Overwritten)
	metrics.WriteCounter(bw, "hwtwbg_journal_torn_reads_total", "Snapshot reads that discarded a torn record.", nil, js.TornReads)
	metrics.WriteGauge(bw, "hwtwbg_journal_capacity_records", "Flight-recorder capacity in records, summed across rings.", nil, float64(js.Cap))
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

// MarshalJSON renders the snapshot (used by the debug endpoints);
// defined explicitly so the type stays stable if internals grow.
func (s MetricsSnapshot) MarshalJSON() ([]byte, error) {
	type alias MetricsSnapshot
	return json.Marshal(alias(s))
}
