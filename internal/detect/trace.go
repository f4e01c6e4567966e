package detect

import (
	"fmt"

	"hwtwbg/internal/table"
)

// TraceKind classifies a trace event.
type TraceKind uint8

// Trace event kinds, in the vocabulary of the paper's Step 2/3
// narration.
const (
	// TraceVisit: the walk moved forward along an edge to a new vertex.
	TraceVisit TraceKind = iota
	// TraceSkip: the walk skipped an edge (end-of-queue 0, an
	// exhausted/killed target, or — on a torn snapshot only — one that
	// would close a cycle of W edges alone, which is no deadlock).
	TraceSkip
	// TraceBacktrack: the walk retreated to the vertex's ancestor; To
	// is 0 when the vertex was the walk's root, whose walk is done.
	TraceBacktrack
	// TraceCycle: an edge reached a vertex with a non-zero ancestor —
	// a deadlock cycle was detected.
	TraceCycle
	// TraceCandidate: victim selection priced one candidate.
	TraceCandidate
	// TraceVictimTDR1: a junction was selected for abortion.
	TraceVictimTDR1
	// TraceVictimTDR2: a queue repositioning was selected.
	TraceVictimTDR2
	// TraceAbort: Step 3 confirmed an abortion.
	TraceAbort
	// TraceSalvage: Step 3 rescued a victim that an earlier abort had
	// already granted.
	TraceSalvage
)

var traceNames = map[TraceKind]string{
	TraceVisit: "visit", TraceSkip: "skip", TraceBacktrack: "backtrack",
	TraceCycle: "cycle", TraceCandidate: "candidate",
	TraceVictimTDR1: "victim-tdr1", TraceVictimTDR2: "victim-tdr2",
	TraceAbort: "abort", TraceSalvage: "salvage",
}

// String returns the event kind name.
func (k TraceKind) String() string { return traceNames[k] }

// TraceEvent is one step of the periodic algorithm, emitted through
// Config.Trace. From/To carry the vertices involved (0 when not
// applicable); Cost carries a candidate's price; TDR2 marks
// repositioning candidates; Cycle carries the detected cycle for
// TraceCycle events.
type TraceEvent struct {
	Kind  TraceKind
	From  table.TxnID
	To    table.TxnID
	Cost  float64
	TDR2  bool
	Cycle []table.TxnID
}

// String renders the event as one narration line.
func (e TraceEvent) String() string {
	switch e.Kind {
	case TraceVisit:
		return fmt.Sprintf("visit %v -> %v", e.From, e.To)
	case TraceSkip:
		return fmt.Sprintf("skip edge %v -> %v", e.From, e.To)
	case TraceBacktrack:
		if e.To == 0 {
			return fmt.Sprintf("backtrack %v (root done)", e.From)
		}
		return fmt.Sprintf("backtrack %v -> %v", e.From, e.To)
	case TraceCycle:
		s := "cycle detected:"
		for _, v := range e.Cycle {
			s += " " + v.String()
		}
		return s
	case TraceCandidate:
		if e.TDR2 {
			return fmt.Sprintf("candidate TDR-2 at junction %v (cost %.2f)", e.From, e.Cost)
		}
		return fmt.Sprintf("candidate TDR-1 %v (cost %.2f)", e.From, e.Cost)
	case TraceVictimTDR1:
		return fmt.Sprintf("selected victim %v (abort)", e.From)
	case TraceVictimTDR2:
		return fmt.Sprintf("selected TDR-2 repositioning at junction %v", e.From)
	case TraceAbort:
		return fmt.Sprintf("step 3: abort %v", e.From)
	case TraceSalvage:
		return fmt.Sprintf("step 3: salvage %v (already granted)", e.From)
	}
	return "?"
}

// emit sends an event to the configured trace hook, if any.
func (d *Detector) emit(e TraceEvent) {
	if d.cfg.Trace != nil {
		d.cfg.Trace(e) //hwlint:allow allocbudget -- optional narration hook, unset in the manager; a nil guard on a func field is not elided as an interface one is
	}
}
