package hwtwbg

import (
	"slices"

	"hwtwbg/internal/detect"
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
		if !m.edgeHolds(e) {
			return false
		}
	}
	return true
}

// edgeHolds reports whether the live resource still induces e: the
// Edge Construction Rules Step 1 wired the snapshot by, applied to the
// resource now, yield it. So a W edge holds while From sits right
// before To in the queue, blocked in the recorded mode, and an H edge
// while the two are conflicting holders or To is the first waiter to
// conflict with From. Any drift fails the edge, and the caller drops
// the whole cycle.
func (m *Manager) edgeHolds(e detect.CycleEdge) bool {
	r := m.shardFor(e.Resource).tb.Resource(e.Resource)
	if r == nil {
		return false
	}
	m.replay.edges = detect.RuleEdges(m.replay.edges[:0], r)
	return slices.Contains(m.replay.edges, e)
}

// tdr2Holds re-checks TDR-2's precondition live (detect.TDR2Applies):
// the junction still waits in the recorded queue, in a mode compatible
// with the live total mode. Caller holds the owning shard's mutex.
func (m *Manager) tdr2Holds(r *detect.Resolution) bool {
	return detect.TDR2Applies(m.shardFor(r.Resource).tb, r.Victim, r.Resource)
}
