// Package hwtwbg is a deadlock-detecting lock manager for Go programs,
// implementing Young-Chul Park's periodic deadlock detection and
// resolution algorithm over the Holder/Waiter Transaction Waited-By
// Graph (H/W-TWBG, Univ. of Ulsan Journal of Engineering Research 1991 /
// ICDE 1992 line of work).
//
// The manager provides strict two-phase locking with the five multiple-
// granularity lock modes (IS, IX, S, SIX, X), first-in-first-out
// scheduling with lock conversions, and a background detector that
// periodically finds every deadlock and resolves each one either by
// aborting a minimum-cost victim (TDR-1) or — uniquely to this
// algorithm — by repositioning queued requests so that nobody at all is
// aborted (TDR-2).
//
// The concurrent facade is sharded: resources are hash-striped over S
// independent lock tables (Options.Shards, default derived from
// GOMAXPROCS), each with its own mutex, so transactions touching
// different resources proceed in parallel on different cores. The
// periodic detector copies each shard out under its own mutex, one shard
// at a time, runs the paper's algorithm over the merged snapshot with no
// shard locks held, and applies each TDR-1/TDR-2 resolution back into the
// owning shards only after re-validating its cycle against the live
// tables — so cross-shard deadlocks are found and resolved exactly as a
// single-table manager would, at a cost paid once per period rather than
// on every operation.
//
// Typical use:
//
//	lm := hwtwbg.Open(hwtwbg.Options{Period: 50 * time.Millisecond})
//	defer lm.Close()
//
//	t := lm.Begin()
//	if err := t.Lock(ctx, "accounts/42", hwtwbg.X); err != nil {
//	    // hwtwbg.ErrAborted: this transaction was chosen as a deadlock
//	    // victim; roll back and retry.
//	}
//	// ... do the work ...
//	t.Commit()
//
// Lock blocks until the lock is granted, the context is cancelled, or
// the transaction is sacrificed to break a deadlock. All methods are
// safe for concurrent use.
package hwtwbg

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hwtwbg/internal/audit"
	"hwtwbg/internal/detect"
	"hwtwbg/internal/lock"
	"hwtwbg/internal/table"
	"hwtwbg/internal/twbg"
	"hwtwbg/journal"
)

// auditReportCap bounds the audit-report ring the invariant auditor
// keeps.
const auditReportCap = 256

// Mode is a lock mode; see the Comp and Conv tables of the MGL protocol.
type Mode = lock.Mode

// The six lock modes.
const (
	NL  = lock.NL
	IS  = lock.IS
	IX  = lock.IX
	SIX = lock.SIX
	S   = lock.S
	X   = lock.X
)

// Comp reports whether two lock modes are compatible (Table 1 of the
// paper).
func Comp(a, b Mode) bool { return lock.Comp(a, b) }

// Conv returns the combined mode after converting a granted lock to
// additionally cover a requested mode (Table 2 of the paper).
func Conv(granted, requested Mode) Mode { return lock.Conv(granted, requested) }

// ParseMode converts "IS", "IX", "S", "SIX", "X" or "NL" to a Mode.
func ParseMode(s string) (Mode, error) { return lock.Parse(s) }

// TxnID identifies a transaction.
type TxnID = table.TxnID

// ResourceID identifies a lockable resource.
type ResourceID = table.ResourceID

// Errors returned by the manager.
var (
	// ErrAborted: the transaction was aborted — either chosen as a
	// deadlock victim or cancelled mid-wait — and holds nothing.
	ErrAborted = errors.New("hwtwbg: transaction aborted")
	// ErrDone: the transaction already committed or aborted.
	ErrDone = errors.New("hwtwbg: transaction already finished")
	// ErrClosed: the manager has been closed.
	ErrClosed = errors.New("hwtwbg: manager closed")
)

// Background-detector scheduling strategies; see Options.Scheduling.
const (
	// SchedulingFixed (also selected by "") re-runs the detector every
	// Options.Period, unconditionally.
	SchedulingFixed = "fixed"
	// SchedulingCostModel derives the period from the online cost model
	// (Ling/Chen/Chiang): T* = sqrt(2·D̂/(λ̂·ρ̂)) from the measured
	// deadlock formation rate, detection cost and deadlock persistence
	// cost, clamped to [Period/8 (≥100µs), MaxPeriod]. See
	// MetricsSnapshot.CostModel.
	SchedulingCostModel = "costmodel"
)

// Options configures a Manager.
type Options struct {
	// Period is the detection interval. Zero disables the background
	// detector; call Detect manually.
	Period time.Duration
	// Scheduling selects how the background detector's period evolves
	// between activations: SchedulingFixed (the paper's; default, also
	// chosen by "" and by any unknown value) or SchedulingCostModel (the
	// Ling/Chen/Chiang cost-minimizing period, derived online; see
	// MetricsSnapshot.CostModel). It has no effect when Period is zero.
	// MetricsSnapshot.Period reports the live value.
	Scheduling string
	// MaxPeriod caps the cost-model period (default 8×Period).
	MaxPeriod time.Duration
	// Shards is the number of lock-table stripes, rounded up to a power
	// of two. Zero derives it from runtime.GOMAXPROCS(0). One shard
	// reproduces the serial facade (every resource behind one mutex).
	Shards int
	// DisableTDR2 turns off resolution-by-repositioning; every deadlock
	// is then resolved by aborting a victim.
	DisableTDR2 bool
	// OnVictim, if non-nil, is called (outside all manager locks) with
	// the id of every transaction aborted by the detector.
	OnVictim func(TxnID)
	// JournalSize is the flight recorder's capacity in records per ring
	// (one lock-free ring per shard plus a control ring for lifecycle and
	// detector events), rounded up to a power of two. Zero selects the
	// default (4096 records per ring); negative disables the journal
	// entirely. The recorder overwrites oldest-first and its hot-path
	// writes never allocate or block, so leaving it on costs a few dozen
	// nanoseconds per lock event; see Journal.
	JournalSize int

	// Test hooks (package-internal; zero values select production
	// behavior). audit arms the runtime invariant auditor in any build:
	// after every detector activation the paper's proved properties are
	// re-verified from scratch against the tables and the resolutions
	// the detector reported (see internal/audit and audit_on.go);
	// unset, an activation pays one branch for it. schedTick replaces the
	// background loop's timer — the loop runs one activation per value
	// received, so tests drive the scheduler without wall-clock sleeps.
	// schedNotify, when non-nil, receives the period chosen after each
	// background activation (non-blocking send; size the channel for the
	// ticks driven).
	audit       bool
	schedTick   <-chan time.Time
	schedNotify chan<- time.Duration
}

// Stats accumulates detector activity over the manager's lifetime.
type Stats struct {
	Runs           int // detector activations
	CyclesSearched int // cycles found and resolved (the paper's c', summed)
	Aborted        int // victims aborted
	Repositioned   int // deadlocks resolved without any abort (TDR-2)
	Salvaged       int // victims rescued at Step 3 because an earlier abort unblocked them

	// FalseCycles counts resolutions dropped at validation because the
	// cycle seen in the (possibly torn) snapshot no longer held against
	// the live shards; nothing was aborted or repositioned for them.
	FalseCycles int
	// Validations counts validate-then-act attempts (applied + dropped).
	Validations int

	// ShardsCopied and ShardsSkipped count, across activations, the
	// shards recopied into the snapshot versus reused because their
	// mutation epoch was unchanged since the detector's previous copy.
	ShardsCopied  int
	ShardsSkipped int

	// ShardHoldLast/ShardHoldMax record the worst stall a detector
	// activation imposes on the grant path: the longest time any single
	// shard mutex was held for copy-out (the detector never stops the
	// world). Last is the most recent activation's value, Max the worst
	// so far; in the Stats returned by one Detect call both are that
	// activation's hold.
	ShardHoldLast time.Duration
	ShardHoldMax  time.Duration
}

// ShardStat describes one shard's lifetime activity.
type ShardStat struct {
	Grants        uint64 // lock requests granted by this shard (immediate and hand-off)
	MutexAcquires uint64 // hot-path shard-mutex rounds (lock/commit/abort/wake re-checks)

	// Deprecated: requests are no longer combined; always zero.
	FlatCombined uint64
}

// ActivationReport decomposes one detector activation: when it ran,
// what its time was spent on, and what the algorithm saw and did. The
// most recent reports are kept in a ring (see Activations); what each
// activation decided is journaled, and `hwtrace postmortems` reads it
// back from a dump of the journal (/journal.bin, or a DumpJournal
// result passed to journal.Encode).
//
// Total ≈ Acquire + Copy + Build + Search + Resolve + Validate: Acquire
// is the summed wait to take each shard mutex one at a time, Copy the
// dirty-shard scan plus the summed per-shard copy-out into the snapshot
// arena and the merge (MaxShardHold is the worst single shard's hold —
// the only stall the activation imposes on the grant path),
// Build/Search/Resolve are the paper's Steps 1–3 (TST construction; the
// O(n + e·(c′+1)) directed walk including TDR-2 queue repositionings;
// abort confirmation and queue rescheduling) run over the snapshot with
// no locks held, and Validate covers re-verifying every resolution
// against the live shards and applying the survivors, including their
// wakeups. Wake is always zero; the field is kept for report consumers
// that read it by name. The phase fields are the embedded PhaseTotals,
// the same struct the manager sums them into, so their json keys
// flatten into the report and cannot drift from the lifetime totals.
type ActivationReport struct {
	// Time is the instant the activation turned from searching to
	// acting: it began Total−Validate earlier and ended Validate later.
	// Every copy its decisions were made from precedes that instant, and
	// everything acting on them sets off — a woken waiter's grant, a
	// victim's abort, each stamped by its own goroutine's clock —
	// follows it. The activation's end would not order that way: a
	// waiter woken by the first resolution can stamp its grant before
	// the last one is applied. It is read from the manager's clock, the
	// time base of every journal stamp.
	Time time.Time `json:"time"`
	Seq  int       `json:"seq"` // 1-based activation number

	PhaseTotals
	Total time.Duration `json:"total_ns"` // the full activation

	// MaxShardHold is the longest any single shard mutex was held by
	// this activation's copy-out.
	MaxShardHold time.Duration `json:"max_shard_hold_ns"`

	Vertices       int `json:"vertices"`    // the graph's n
	Edges          int `json:"edges"`       // the graph's e
	EdgeVisits     int `json:"edge_visits"` // Step 2 cursor operations
	CyclesSearched int `json:"cycles"`      // the paper's c'
	Aborted        int `json:"aborted"`
	Repositioned   int `json:"repositioned"`
	Salvaged       int `json:"salvaged"`
	FalseCycles    int `json:"false_cycles"` // resolutions dropped at validation
	Validations    int `json:"validations"`  // validate-then-act attempts (applied + dropped)

	// ShardsCopied/ShardsSkipped decompose the snapshot copy phase:
	// shards recopied because their mutation epoch changed versus shards
	// whose previous copy was reused as-is.
	ShardsCopied  int `json:"shards_copied"`
	ShardsSkipped int `json:"shards_skipped"`
}

// String renders a one-line summary of the activation.
func (r ActivationReport) String() string {
	return fmt.Sprintf("activation %d: total=%v (acquire=%v copy=%v build=%v search=%v resolve=%v validate=%v wake=%v hold=%v) shards=%d/%d n=%d e=%d c'=%d aborted=%d repositioned=%d salvaged=%d false=%d validations=%d",
		r.Seq, r.Total, r.Acquire, r.Copy, r.Build, r.Search, r.Resolve, r.Validate, r.Wake, r.MaxShardHold,
		r.ShardsCopied, r.ShardsCopied+r.ShardsSkipped,
		r.Vertices, r.Edges, r.CyclesSearched, r.Aborted, r.Repositioned, r.Salvaged, r.FalseCycles, r.Validations)
}

// Manager is a goroutine-safe lock manager with a sharded lock table
// and periodic deadlock detection. Create one with Open.
type Manager struct {
	opts   Options
	shards []*shard
	mask   uint32 // len(shards)-1; shard count is a power of two
	mt     *multiTable

	// snap is the reusable snapshot arena and snapDet the detector bound
	// to its merged view; both are touched only under detMu.
	// dirtyScratch is the reusable dirty-shard index list and replay the
	// validate-then-act storage, likewise detMu's.
	snap         *table.Snapshot
	snapDet      *detect.Detector
	dirtyScratch []int
	replay       replayScratch

	// detMu serializes detector activations (background and manual)
	// and Close; it is always acquired before any shard lock.
	detMu sync.Mutex

	// curPeriod is the live detection interval in nanoseconds (equals
	// Options.Period unless Scheduling is tuning it).
	curPeriod atomic.Int64

	// cost is the online detection-scheduling cost model; always
	// maintained (it is a handful of mutexed float updates per
	// activation) so its state is observable even when Scheduling is not
	// "costmodel". schedMin/schedMax are the bounds its period is
	// clamped to.
	cost               *costModel
	schedMin, schedMax time.Duration

	// testHookAfterCopy, if set, runs between the copy-out and the
	// algorithm, with no locks held — tests use it to mutate the live
	// tables and force a torn snapshot.
	testHookAfterCopy func()

	// jr is the flight recorder: one lock-free ring per shard plus a
	// control ring (Options.JournalSize). Nil when disabled.
	jr *journal.Journal

	// mu guards stats, phases, the activation ring (report Seq lives in
	// slot (Seq-1) mod its length) and the audit records only.
	mu           sync.Mutex
	stats        Stats
	phases       PhaseTotals
	activations  []ActivationReport
	auditRuns    int
	auditReports []audit.Report

	closed    atomic.Bool
	nextID    atomic.Int64
	condemned condemnedSet

	// clockBase is the clock reading taken at Open, wall and monotonic,
	// and clockBaseNs its wall part; see now.
	clockBase   time.Time
	clockBaseNs int64

	stop chan struct{}
	done chan struct{}
}

// condemnedSet holds the ids of transactions marked for an externally-
// initiated abort (deadlock victims, Close) that the owning goroutine
// has not yet observed. Entries are consumed on observation, so the set
// is empty in steady state, and n — the number of entries — lets the
// owner's check on every Lock be one atomic load that finds zero. mu
// guards m alone and is taken last: under shard mutexes, never around
// another lock.
type condemnedSet struct {
	n  atomic.Int64
	mu sync.Mutex
	m  map[TxnID]struct{}
}

// add marks id for abort, reporting whether it was not marked yet.
func (c *condemnedSet) add(id TxnID) bool {
	c.mu.Lock()
	_, ok := c.m[id]
	if !ok {
		c.m[id] = struct{}{}
		c.n.Add(1)
	}
	c.mu.Unlock()
	return !ok
}

// take consumes id's mark, reporting whether there was one.
func (c *condemnedSet) take(id TxnID) bool {
	if c.n.Load() == 0 {
		return false
	}
	c.mu.Lock()
	_, ok := c.m[id]
	if ok {
		delete(c.m, id)
		c.n.Add(-1)
	}
	c.mu.Unlock()
	return ok
}

// Open creates a Manager and, when opts.Period > 0, starts its
// background detector.
func Open(opts Options) *Manager {
	n := opts.Shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	n = ceilPow2(n)
	m := &Manager{
		opts:   opts,
		shards: make([]*shard, n),
		mask:   uint32(n - 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	m.clockBase = time.Now()
	m.clockBaseNs = m.clockBase.UnixNano()
	for i := range m.shards {
		m.shards[i] = &shard{tb: table.New(), waiters: make(map[TxnID]chan struct{}), met: &shardMetrics{}}
	}
	if opts.JournalSize >= 0 {
		per := opts.JournalSize
		if per == 0 {
			per = 4096
		}
		m.jr = journal.New(n, per)
		for i := range m.shards {
			m.shards[i].jr = m.jr.Ring(i)
		}
	}
	m.condemned.m = make(map[TxnID]struct{})
	m.mt = &multiTable{shards: m.shards}
	m.activations = make([]ActivationReport, 128)
	m.snap = table.NewSnapshot()
	// The detector runs over the snapshot's view, which holds only the
	// resources that can contribute graph edges (exactly output-
	// preserving; see table.SnapView).
	m.snapDet = detect.New(m.snap.View(), detect.Config{Cost: m.defaultCost, DisableTDR2: opts.DisableTDR2})
	m.cost = &costModel{}
	m.schedMin, m.schedMax = schedBounds(opts.Period, opts.MaxPeriod)
	m.curPeriod.Store(int64(opts.Period))
	if opts.Period > 0 {
		go m.loop(opts.Period)
	} else {
		close(m.done)
	}
	return m
}

// now is the manager's clock, in nanoseconds since the Unix epoch: the
// wall reading taken at Open plus the monotonic time elapsed since. It
// costs one clock read (time.Now costs two) and never steps backwards,
// so every journal ring shares one time base; it drifts from the
// system clock only by that clock's slew since Open. Every stamp and
// phase timing the manager makes comes from here.
func (m *Manager) now() int64 { return m.clockBaseNs + int64(time.Since(m.clockBase)) }

// defaultCost is the victim metric, locks held + 1, so younger
// transactions die first. It prices a candidate from the snapshot
// itself, since the live shards are unlocked while the algorithm runs,
// by the stamp of the candidate's wait: every transaction a detector
// prices waits — a TDR-1 junction or a TDR-2 ST member
// (TestCostPricesOnlyWaiters).
func (m *Manager) defaultCost(id TxnID) float64 { return float64(m.snap.HeldCount(id) + 1) }

// schedBounds derives the clamp on the cost-model period: min is
// period/8 floored at 100µs, max is MaxPeriod (default 8×period; with
// no base period at all, 10s — the model is then advisory only, since
// no background loop runs).
func schedBounds(period, maxPeriod time.Duration) (min, max time.Duration) {
	min = period / 8
	if min < 100*time.Microsecond {
		min = 100 * time.Microsecond
	}
	max = maxPeriod
	if max <= 0 {
		if period > 0 {
			max = 8 * period
		} else {
			max = 10 * time.Second
		}
	}
	if max < min {
		max = min
	}
	return min, max
}

// ceilPow2 rounds n up to the next power of two.
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func (m *Manager) loop(period time.Duration) {
	defer close(m.done)
	selfTuning := m.opts.Scheduling == SchedulingCostModel
	cur := period
	var timer *time.Timer
	tick := m.opts.schedTick
	if tick == nil {
		timer = time.NewTimer(cur)
		defer timer.Stop()
		tick = timer.C
	}
	for {
		select {
		case <-m.stop:
			return
		case <-tick:
			m.Detect()
			if selfTuning {
				cur = m.cost.period(cur, m.schedMin, m.schedMax)
			}
			m.curPeriod.Store(int64(cur))
			if n := m.opts.schedNotify; n != nil {
				select {
				case n <- cur:
				default:
				}
			}
			if timer != nil {
				timer.Reset(cur)
			}
		}
	}
}

// currentPeriod is the live detection interval: Options.Period, or the
// self-tuned value when Scheduling is costmodel. Zero means the
// background detector is disabled.
func (m *Manager) currentPeriod() time.Duration {
	return time.Duration(m.curPeriod.Load())
}

// costModelState is the online detection-scheduling cost model's state,
// with the period it would choose under the scheduler's bounds. The
// model is always maintained; it only *drives* the detector under
// Options.Scheduling "costmodel".
func (m *Manager) costModelState() CostModelState {
	cur := m.currentPeriod()
	if cur <= 0 {
		cur = m.opts.Period
	}
	return m.cost.state(cur, m.schedMin, m.schedMax)
}

// Close stops the background detector and aborts every live
// transaction. Lock calls in flight return ErrAborted (or ErrClosed).
// Close writes each aborted transaction's one end record, stamped
// while every shard is held, before any lock is released.
func (m *Manager) Close() {
	m.detMu.Lock()
	if m.closed.Load() {
		m.detMu.Unlock()
		return
	}
	m.closed.Store(true)
	close(m.stop)
	m.stopTheWorld()
	var ts int64
	if m.jr != nil {
		ts = m.now()
	}
	var ended []TxnID
	for _, s := range m.shards {
		for _, id := range s.tb.Txns() {
			s.tb.Abort(id)
			if m.condemned.add(id) {
				ended = append(ended, id)
			}
		}
		s.epoch.bump()
		s.wakeAll()
	}
	m.resumeTheWorld()
	for _, id := range ended {
		m.journalControl(journal.KindAbort, id, ts, 0)
	}
	m.detMu.Unlock()
	<-m.done
}

// Detect runs one activation of the periodic detection-resolution
// algorithm immediately and returns what it did: it copies each dirty
// shard out one at a time, runs the paper's algorithm over the merged
// snapshot with no locks held, and applies each resolution only after
// re-validating its cycle against the live shards. A deadlock whose
// cycle spans resources in different shards is handled identically to
// one confined to a single shard.
func (m *Manager) Detect() Stats {
	m.detMu.Lock()
	defer m.detMu.Unlock()
	if m.closed.Load() {
		return Stats{}
	}
	return m.detectSnapshot()
}

// recordActivation folds one finished activation into the cumulative
// stats, phase totals and activation ring, then — outside all locks —
// journals it and fires the OnVictim hook. The activation path only
// emits: out's aborted and repositioned carry the resolutions it
// validated and acted on (application order, each with its cycle
// evidence), salvaged the victims that needed no action; readers
// reconstruct what happened from those records on demand
// (internal/jview's Resolutions and Postmortems). The returned Stats
// describes this activation alone.
func (m *Manager) recordActivation(rep ActivationReport, out *replayOutcome) Stats {
	activation := Stats{
		Runs:           1,
		CyclesSearched: rep.CyclesSearched,
		Aborted:        rep.Aborted,
		Repositioned:   rep.Repositioned,
		Salvaged:       rep.Salvaged,
		FalseCycles:    rep.FalseCycles,
		Validations:    rep.Validations,
		ShardsCopied:   rep.ShardsCopied,
		ShardsSkipped:  rep.ShardsSkipped,
		ShardHoldLast:  rep.MaxShardHold,
		ShardHoldMax:   rep.MaxShardHold,
	}
	m.mu.Lock()
	m.stats.Runs++
	m.stats.CyclesSearched += rep.CyclesSearched
	m.stats.Aborted += rep.Aborted
	m.stats.Repositioned += rep.Repositioned
	m.stats.Salvaged += rep.Salvaged
	m.stats.FalseCycles += rep.FalseCycles
	m.stats.Validations += rep.Validations
	m.stats.ShardsCopied += rep.ShardsCopied
	m.stats.ShardsSkipped += rep.ShardsSkipped
	m.stats.ShardHoldLast = rep.MaxShardHold
	if rep.MaxShardHold > m.stats.ShardHoldMax {
		m.stats.ShardHoldMax = rep.MaxShardHold
	}
	rep.Seq = m.stats.Runs
	m.phases.add(rep.PhaseTotals)
	m.activations[(rep.Seq-1)%len(m.activations)] = rep
	m.mu.Unlock()

	m.cost.observeActivation(rep)
	m.journalActivation(rep, out)

	if cb := m.opts.OnVictim; cb != nil {
		for i := range out.aborted {
			cb(out.aborted[i].Victim)
		}
	}
	return activation
}

// journalActivation writes one activation's detector events into the
// control ring: the activation span, then each acted resolution's
// victim or reposition record immediately followed by that resolution's
// own cycle edges, then the salvages. Emission order is what groups an
// edge with its resolution when the records are read back (two cycles of
// one activation can share a vertex). Called outside all manager locks.
// The records share the report's stamp (see ActivationReport.Time), so
// in timestamp order the group sits between its evidence and its
// effects whatever the scheduler does. Last come the victims' abort
// records, each with the stamp abortVictim read before releasing
// anything, so they sort after the group and before the grants the
// aborts caused.
func (m *Manager) journalActivation(rep ActivationReport, out *replayOutcome) {
	if m.jr == nil {
		return
	}
	ctl := m.jr.Control()
	ts := rep.Time.UnixNano()
	seq := uint32(rep.Seq)
	rec := journal.Record{TS: ts, Txn: int64(rep.Seq), Arg: uint64(rep.Total), Kind: journal.KindDetect, Aux: uint32(rep.CyclesSearched)}
	ctl.Emit(&rec)
	if len(m.shards) > 1 && rep.ShardsCopied+rep.ShardsSkipped > 0 {
		cr := journal.Record{TS: ts, Txn: int64(rep.Seq), Arg: uint64(rep.ShardsCopied), Kind: journal.KindDetectCopy, Aux: uint32(rep.ShardsSkipped)}
		ctl.Emit(&cr)
	}
	resolution := func(kind journal.Kind, res *detect.Resolution) {
		r := journal.Record{TS: ts, Txn: int64(res.Victim), Kind: kind, Aux: seq}
		r.SetResource(string(res.Resource))
		ctl.Emit(&r)
		for _, e := range res.Cycle {
			r := journal.Record{TS: ts, Txn: int64(e.From), Arg: uint64(e.To), Kind: journal.KindCycleEdge, Mode: uint8(e.Mode), Aux: seq}
			r.SetResource(string(e.Resource))
			ctl.Emit(&r)
		}
	}
	for i := range out.aborted {
		resolution(journal.KindVictim, &out.aborted[i])
	}
	for i := range out.repositioned {
		resolution(journal.KindReposition, &out.repositioned[i])
	}
	for _, v := range out.salvaged {
		r := journal.Record{TS: ts, Txn: int64(v), Kind: journal.KindSalvage, Aux: seq}
		ctl.Emit(&r)
	}
	for i := range out.aborted {
		m.journalControl(journal.KindAbort, out.aborted[i].Victim, out.abortTS[i], 0)
	}
}

// Journal returns the manager's flight recorder, or nil when it was
// disabled (Options.JournalSize < 0). Snapshots taken from it are safe
// at any rate — readers never block the hot path.
func (m *Manager) Journal() *journal.Journal { return m.jr }

// ShardStats returns per-shard activity counters, one entry per shard
// in shard-index order. The counters are atomic, so no shard lock is
// taken; MetricsSnapshot returns the full per-shard breakdown.
func (m *Manager) ShardStats() []ShardStat {
	out := make([]ShardStat, len(m.shards))
	for i, s := range m.shards {
		out[i] = ShardStat{
			Grants:        s.met.grants(),
			MutexAcquires: s.met.mutexAcquires.Load(),
		}
	}
	return out
}

// NumShards returns the shard count the manager was opened with (after
// rounding up to a power of two).
func (m *Manager) NumShards() int { return len(m.shards) }

// Snapshot returns the lock table rendered in the paper's notation, one
// resource per line, from a consistent stop-the-world view.
func (m *Manager) Snapshot() string {
	m.stopTheWorld()
	defer m.resumeTheWorld()
	return m.mt.String()
}

// DOT renders the current H/W-TWBG in Graphviz format.
func (m *Manager) DOT() string {
	m.stopTheWorld()
	defer m.resumeTheWorld()
	return twbg.Build(m.mt).DOT()
}

// Blocked reports whether transaction id is currently waiting for a
// lock (diagnostic).
func (m *Manager) Blocked(id TxnID) bool {
	for _, s := range m.shards {
		s.mu.Lock()
		b := s.tb.Blocked(id)
		s.mu.Unlock()
		if b {
			return true
		}
	}
	return false
}

// Deadlocked reports whether the current state contains a deadlock
// (diagnostic; the background detector clears them every period).
func (m *Manager) Deadlocked() bool {
	m.stopTheWorld()
	defer m.resumeTheWorld()
	return twbg.Build(m.mt).HasCycle()
}

func (m *Manager) String() string {
	return fmt.Sprintf("hwtwbg.Manager(period=%v, shards=%d)", m.opts.Period, len(m.shards))
}
