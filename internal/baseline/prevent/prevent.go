// Package prevent implements the two classic timestamp-based deadlock
// PREVENTION schemes of Rosenkrantz, Stearns and Lewis — wait-die and
// wound-wait — which the performance study the paper builds on
// (Agrawal/Carey/McVoy, IEEE TSE 1987, reference [2]) uses as the main
// alternatives to detection. They never let a deadlock form, at the
// price of aborting transactions that were not actually deadlocked:
//
//   - wait-die (non-preemptive): a requester may wait only for younger
//     transactions; if any transaction blocking it is older, the
//     requester dies (aborts) immediately.
//   - wound-wait (preemptive): an older requester wounds (aborts) every
//     younger transaction blocking it; a younger requester waits.
//
// Age is the Priority timestamp, inherited across restarts so that a
// repeatedly killed transaction eventually becomes the oldest and wins —
// the property that makes both schemes livelock-free.
//
// The simulator's comparison tables pit these against the H/W-TWBG
// detector to reproduce the detection-vs-prevention trade-off: zero
// detection cost and zero deadlock persistence versus spurious aborts
// on conflicts that would have resolved themselves.
package prevent

import (
	"hwtwbg/internal/baseline"
	"hwtwbg/internal/table"
)

// Scheme selects the prevention rule.
type Scheme uint8

const (
	// WaitDie is the non-preemptive rule: younger requesters die.
	WaitDie Scheme = iota
	// WoundWait is the preemptive rule: older requesters kill younger
	// blockers.
	WoundWait
)

// Preventer applies a prevention scheme on every block. It satisfies
// the simulator's Resolver interface.
type Preventer struct {
	tb     *table.Table
	scheme Scheme
	// Priority maps a transaction to its timestamp (smaller = older).
	// Required; the simulator supplies its terminals' priorities.
	Priority func(table.TxnID) int64
}

// New returns a preventer over tb with the given scheme.
func New(tb *table.Table, scheme Scheme, priority func(table.TxnID) int64) *Preventer {
	return &Preventer{tb: tb, scheme: scheme, Priority: priority}
}

// Name identifies the strategy in reports.
func (p *Preventer) Name() string {
	if p.scheme == WaitDie {
		return "wait-die"
	}
	return "wound-wait"
}

// OnBlocked applies the prevention rule to the transaction that just
// blocked, returning whatever it aborted (the requester itself under
// wait-die; younger blockers under wound-wait).
func (p *Preventer) OnBlocked(txn table.TxnID, now int64) []table.TxnID {
	blockers := baseline.Blockers(p.tb, txn)
	if len(blockers) == 0 {
		return nil
	}
	myAge := p.Priority(txn)
	switch p.scheme {
	case WaitDie:
		// Wait only if strictly older than every blocker.
		for _, b := range blockers {
			if p.Priority(b) < myAge {
				p.tb.Abort(txn)
				return []table.TxnID{txn}
			}
		}
		return nil
	default: // WoundWait
		var wounded []table.TxnID
		for _, b := range blockers {
			if p.Priority(b) > myAge {
				wounded = append(wounded, b)
			}
		}
		for _, b := range wounded {
			p.tb.Abort(b)
		}
		return wounded
	}
}

// OnTick re-validates the prevention invariant for every blocked
// transaction. In the classic S/X model this is unnecessary — the
// invariant (wait-die: waiters older than all their blockers;
// wound-wait: waiters younger) is established at block time and never
// decays. With lock conversions it can decay: a holder's granted
// upgrade may newly conflict with an already-admitted waiter, creating
// a wait edge in the forbidden direction without any block event. The
// sweep restores the invariant, bounding any deadlock's lifetime by one
// tick.
func (p *Preventer) OnTick(now int64) []table.TxnID {
	var victims []table.TxnID
	for _, txn := range p.tb.Txns() {
		if !p.tb.Blocked(txn) {
			continue
		}
		victims = append(victims, p.OnBlocked(txn, now)...)
	}
	return victims
}

// Forget is a no-op: no per-transaction state is kept.
func (p *Preventer) Forget(table.TxnID) {}
