package hwtwbg

import (
	"log/slog"
	"time"
)

// Tracer receives lock-manager lifecycle hooks. Set one with
// Options.Tracer to stream requests, blocks, grants, aborts and
// detector activations into logging, tracing or custom accounting.
//
// Every hook is invoked outside the shard mutexes and the stats mutex
// — the same discipline as Options.OnVictim — so a slow tracer can
// delay only the transaction that triggered the hook, never block the
// lock table, and a tracer may safely call the Manager's read-side
// (Stats, MetricsSnapshot, History). Hooks fire from whatever goroutine
// performed the operation; implementations must be goroutine-safe.
//
// A nil Options.Tracer costs one predictable branch per operation; see
// EXPERIMENTS.md E20 for the measured overhead of an attached tracer.
// The built-in flight recorder follows the same design: a disabled
// journal (Options.JournalSize < 0) costs one predictable nil-check
// branch per emission site, and an enabled one adds only a stack-built
// record and a lock-free ring write — no allocation either way; see
// EXPERIMENTS.md E22 for the journal on/off measurement.
type Tracer interface {
	// OnRequest fires when a transaction asks for a lock (Lock or
	// TryLock), before the request reaches the lock table.
	OnRequest(txn TxnID, r ResourceID, m Mode)
	// OnBlock fires when a lock request blocks. depth counts the
	// requests in line at enqueue time including this one: the queue
	// length for a fresh requestor, the blocked-upgrader prefix length
	// for a blocked conversion.
	OnBlock(txn TxnID, r ResourceID, m Mode, depth int)
	// OnGrant fires when a lock request is granted; wait is zero for
	// immediate grants, otherwise the time the request spent blocked.
	OnGrant(txn TxnID, r ResourceID, m Mode, wait time.Duration)
	// OnAbort fires when a transaction's owner observes its abort: an
	// explicit Abort, a context cancellation mid-wait, or — one hook
	// invocation later than OnVictim — when the owner of a deadlock
	// victim sees ErrAborted.
	OnAbort(txn TxnID)
	// OnActivation fires after every detector activation with its
	// phase-timing report.
	OnActivation(ActivationReport)
}

// SlogTracer is a ready-made Tracer that logs to a *slog.Logger:
// blocks, waited grants, aborts and detector activations at Info,
// per-request chatter (OnRequest, immediate OnGrant) at Debug.
type SlogTracer struct {
	L *slog.Logger
}

// NewSlogTracer returns a tracer logging to l (slog.Default() when
// nil).
func NewSlogTracer(l *slog.Logger) *SlogTracer {
	if l == nil {
		l = slog.Default()
	}
	return &SlogTracer{L: l}
}

func (s *SlogTracer) OnRequest(txn TxnID, r ResourceID, m Mode) {
	s.L.Debug("lock request", "txn", int(txn), "resource", string(r), "mode", m.String())
}

func (s *SlogTracer) OnBlock(txn TxnID, r ResourceID, m Mode, depth int) {
	s.L.Info("lock blocked", "txn", int(txn), "resource", string(r), "mode", m.String(), "depth", depth)
}

func (s *SlogTracer) OnGrant(txn TxnID, r ResourceID, m Mode, wait time.Duration) {
	if wait == 0 {
		s.L.Debug("lock granted", "txn", int(txn), "resource", string(r), "mode", m.String())
		return
	}
	s.L.Info("lock granted after wait", "txn", int(txn), "resource", string(r), "mode", m.String(), "wait", wait)
}

func (s *SlogTracer) OnAbort(txn TxnID) {
	s.L.Info("txn aborted", "txn", int(txn))
}

func (s *SlogTracer) OnActivation(rep ActivationReport) {
	s.L.Info("detector activation",
		"seq", rep.Seq,
		"total", rep.Total,
		"acquire", rep.Acquire,
		"build", rep.Build,
		"search", rep.Search,
		"resolve", rep.Resolve,
		"wake", rep.Wake,
		"vertices", rep.Vertices,
		"edges", rep.Edges,
		"cycles", rep.CyclesSearched,
		"aborted", rep.Aborted,
		"repositioned", rep.Repositioned,
		"salvaged", rep.Salvaged)
}
