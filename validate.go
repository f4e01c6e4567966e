package hwtwbg

import (
	"slices"

	"hwtwbg/internal/detect"
	"hwtwbg/internal/lock"
	"hwtwbg/internal/table"
)

// Validation: the snapshot detector finds cycles in a view assembled
// from per-shard copies taken at different instants, so a "cycle" may
// be an artifact of the skew — half of it observed before a commit,
// half after. Before acting on a resolution, the manager re-verifies
// the cycle's edge evidence against the live shard tables while holding
// the mutex of every shard that owns a cycle resource. If every edge
// still holds at that one instant, each cycle member is blocked behind
// its successor right now, i.e. the cycle is a genuine deadlock and can
// only be broken by an external abort — so acting on it never aborts a
// transaction spuriously. A cycle that fails is dropped and counted
// (Stats.FalseCycles); if it was real but merely drifted, the next
// activation finds it again.

// cycleShards returns the sorted, deduplicated shard indices owning the
// cycle's inducing resources, reusing buf. Sorted order is what makes
// lockShards deadlock-free against stopTheWorld and other cycle sets.
//
//hwlint:hotpath allocs=0
func (m *Manager) cycleShards(buf []uint32, cycle []detect.CycleEdge) []uint32 {
	buf = buf[:0]
	for _, e := range cycle {
		buf = append(buf, shardIndex(e.Resource, m.mask))
	}
	slices.Sort(buf)
	n := 0
	for _, v := range buf {
		if n == 0 || v != buf[n-1] {
			buf[n] = v
			n++
		}
	}
	return buf[:n]
}

// cycleHolds re-verifies a snapshot-detected cycle edge by edge against
// the live tables. The caller holds the mutex of every shard owning a
// cycle resource (lockShards over cycleShards), so the edges are
// checked against a single consistent instant.
func (m *Manager) cycleHolds(cycle []detect.CycleEdge) bool {
	for _, e := range cycle {
		r := m.shardFor(e.Resource).tb.Resource(e.Resource)
		if r == nil || !edgeHolds(r, e) {
			return false
		}
	}
	return true
}

// edgeHolds re-checks one edge's evidence on the live resource. A W
// edge asserts From still sits immediately before To in the queue,
// blocked in the recorded mode; an H edge asserts the ECR-1 or ECR-2
// conflict that induced it still holds (the same rules Step 1 wires
// edges by). The check errs on the strict side: any drift fails the
// edge and the whole cycle is dropped.
func edgeHolds(r *table.Resource, e detect.CycleEdge) bool {
	if e.W() {
		qn := r.QueueLen()
		for i := 0; i+1 < qn; i++ {
			if q := r.QueueAt(i); q.Txn == e.From {
				return q.Blocked == e.Mode && r.QueueAt(i+1).Txn == e.To
			}
		}
		return false
	}
	// H edge: From must still hold (or hold-and-convert on) the resource.
	hn := r.NumHolders()
	from := -1
	for i := 0; i < hn; i++ {
		if r.HolderAt(i).Txn == e.From {
			from = i
			break
		}
	}
	if from < 0 {
		return false
	}
	hf := r.HolderAt(from)
	// ECR-1: To is a fellow holder in conflict. The rule is ordered —
	// which of the pair's conflicts induces From -> To depends on their
	// holder-list positions, exactly as Step 1 wired it.
	for i := 0; i < hn; i++ {
		if r.HolderAt(i).Txn != e.To {
			continue
		}
		ht := r.HolderAt(i)
		if from < i {
			return !lock.Comp(hf.Granted, ht.Blocked) || !lock.Comp(hf.Blocked, ht.Blocked)
		}
		return !lock.Comp(ht.Blocked, hf.Granted)
	}
	// ECR-2: To must be the FIRST queue member in conflict with From
	// (Step 1 stops at the first, so a match further back is a different
	// edge, not this one).
	qn := r.QueueLen()
	for j := 0; j < qn; j++ {
		w := r.QueueAt(j)
		if !lock.Comp(w.Blocked, hf.Granted) || !lock.Comp(w.Blocked, hf.Blocked) {
			return w.Txn == e.To
		}
	}
	return false
}

// tdr2Holds re-checks the TDR-2 applicability condition live: the
// junction is still queued on the recorded resource and its blocked
// mode is compatible with the live total mode (Definition 4.1's AV/ST
// split is only defined under that condition). Caller holds the owning
// shard's mutex.
func (m *Manager) tdr2Holds(r *detect.Resolution) bool {
	tb := m.shardFor(r.Resource).tb
	rid, bm, ok := tb.WaitingOn(r.Victim)
	if !ok || rid != r.Resource {
		return false
	}
	res := tb.Resource(r.Resource)
	return res != nil && lock.Comp(bm, res.TotalMode())
}
