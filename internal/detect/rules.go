package detect

import (
	"hwtwbg/internal/lock"
	"hwtwbg/internal/table"
)

// The paper's rules over one lock-table entry, each stated once. Step 1
// wires the TST by RuleEdges and victim selection prices TDR-2 by
// TDR2Applies; the manager's validate-then-act re-checks a snapshot's
// cycle against the live tables with the same two functions, so the
// detector and the validator cannot disagree on what an edge or a
// repositioning is. twbg.Build is the independent statement of the
// Edge Construction Rules that the tests compare Step 1 against.

// RuleEdges appends to buf every edge resource r induces, in the order
// Step 1 wires them, and returns buf extended:
//
//   - ECR-1: for holders i < j, an H edge i -> j when j's blocked mode
//     conflicts with i's granted or blocked mode, and j -> i when i's
//     blocked mode conflicts with j's granted mode;
//   - ECR-2: an H edge from each holder to the first queue member whose
//     blocked mode conflicts with the holder's granted or blocked mode;
//   - ECR-3: a W edge from each queue member to its successor, carrying
//     the member's blocked mode (To 0 for the last, the end of the
//     queue).
//
// A caller that brings its own buffer allocates nothing once the buffer
// has grown to the largest resource it has seen.
func RuleEdges(buf []CycleEdge, r *table.Resource) []CycleEdge {
	rid := r.ID()
	hn, qn := r.NumHolders(), r.QueueLen()
	for i := 0; i < hn; i++ {
		hi := r.HolderAt(i)
		for j := i + 1; j < hn; j++ {
			hj := r.HolderAt(j)
			if !lock.Comp(hi.Granted, hj.Blocked) || !lock.Comp(hi.Blocked, hj.Blocked) {
				buf = append(buf, CycleEdge{From: hi.Txn, To: hj.Txn, Resource: rid})
			}
			if !lock.Comp(hi.Blocked, hj.Granted) {
				buf = append(buf, CycleEdge{From: hj.Txn, To: hi.Txn, Resource: rid})
			}
		}
	}
	for i := 0; i < hn; i++ {
		h := r.HolderAt(i)
		for j := 0; j < qn; j++ {
			if w := r.QueueAt(j); !lock.Comp(w.Blocked, h.Granted) || !lock.Comp(w.Blocked, h.Blocked) {
				buf = append(buf, CycleEdge{From: h.Txn, To: w.Txn, Resource: rid})
				break
			}
		}
	}
	for i := 0; i < qn; i++ {
		e := CycleEdge{From: r.QueueAt(i).Txn, Resource: rid, Mode: r.QueueAt(i).Blocked}
		if i+1 < qn {
			e.To = r.QueueAt(i + 1).Txn
		}
		buf = append(buf, e)
	}
	return buf
}

// TDR2Applies is the precondition of the TRRP Disconnection Rule's
// second form (Definition 4.1): txn waits in the queue of rid, in a
// blocked mode compatible with rid's total mode. Only then is the AV/ST
// split defined with txn closing AV, so that repositioning ST behind AV
// disconnects txn's TRRP.
func TDR2Applies(tb Table, txn table.TxnID, rid table.ResourceID) bool {
	r := tb.Resource(rid)
	if r == nil {
		return false
	}
	for i := 0; i < r.QueueLen(); i++ {
		if q := r.QueueAt(i); q.Txn == txn {
			return lock.Comp(q.Blocked, r.TotalMode())
		}
	}
	return false
}
