package detect

import (
	"hwtwbg/internal/lock"
	"hwtwbg/internal/table"
)

// candidate is one victim option for a detected cycle.
type candidate struct {
	junction table.TxnID
	cost     float64
	tdr2     bool
	resource table.ResourceID // TDR-2 only
}

// better reports whether candidate c beats the best so far (best.cost <
// 0: none yet). A cost tie prefers the resolution that aborts nobody,
// unless preferAbort; then the lower junction id wins.
func better(c, best candidate, preferAbort bool) bool {
	switch {
	case best.cost < 0:
		return true
	case c.cost != best.cost:
		return c.cost < best.cost
	case c.tdr2 != best.tdr2:
		return c.tdr2 != preferAbort
	default:
		return c.junction < best.junction
	}
}

// outEdge is the cycle edge leaving u: the edge its cursor points at
// (cursors only advance past skipped edges, so the tree edge and the
// closing edge are still current).
func (d *Detector) outEdge(u table.TxnID) wedge {
	vu := d.verts[u]
	return vu.edges[vu.cur]
}

// victimSelection resolves the cycle closed by the edge v -> w, where the
// tree path from w to v is recorded in the ancestor pointers. It walks
// the cycle, collects the victim candidates defined by the TRRP
// Disconnection Rule, applies the cheapest one, and clears the ancestor
// of every backtracked vertex except w so the walk can resume at w.
//
// Candidates (Definition 4.1 and Section 4's victim strategy):
//
//   - every junction transaction — a cycle vertex whose outgoing cycle
//     edge is H-labeled, i.e. the endpoint of one TRRP and the start of
//     the next — is a TDR-1 candidate with cost Cost(junction);
//   - a junction whose incoming cycle edge is W-labeled and whose blocked
//     mode is compatible with the total mode of the resource it waits on
//     is additionally a TDR-2 candidate with cost sum(Cost(ST))/2, since
//     the ST transactions are delayed, not aborted.
//
// It reports false, having changed, allocated and traced nothing, when
// the cycle has no junction. On a consistent table that cannot happen
// (Lemma 3: every cycle has at least two TRRPs), but a snapshot merged
// from shards copied at different instants can show one transaction
// queued at two resources, and two such transactions adjacent in
// opposite orders make a cycle of W edges alone. That is no deadlock,
// and the caller steps over the edge that closed it.
//
// The cycle, its evidence and the AV/ST split are appended to the
// detector's arenas, so once they have grown to an activation's size a
// resolution allocates nothing.
//
//hwlint:hotpath allocs=0
func (d *Detector) victimSelection(v, w table.TxnID) bool {
	// The cycle's vertices are v and its ancestors up to w; the edge
	// v -> w closes it. A junction is one whose cycle edge is H-labeled.
	junction := d.outEdge(w).Mode == lock.NL
	for u := v; u != w && !junction; u = d.verts[u].ancestor {
		junction = d.outEdge(u).Mode == lock.NL
	}
	if !junction {
		return false
	}

	// Reconstruct the cycle in cycle order: w, ..., v.
	d.rev = d.rev[:0]
	for u := v; u != w; u = d.verts[u].ancestor {
		d.rev = append(d.rev, u)
	}
	start := len(d.cycleVerts)
	d.cycleVerts = append(d.cycleVerts, w)
	for i := len(d.rev) - 1; i >= 0; i-- {
		d.cycleVerts = append(d.cycleVerts, d.rev[i])
	}
	cycle := d.cycleVerts[start:len(d.cycleVerts):len(d.cycleVerts)]
	d.emit(TraceEvent{Kind: TraceCycle, From: v, To: w, Cycle: cycle})

	// Capture the cycle's edge evidence (for snapshot callers to
	// re-verify): the edge leaving cycle[i] targets cycle[i+1], with the
	// inducing resource recorded at Step 1 (or by a TDR-2 rewire).
	start = len(d.evidence)
	for i, u := range cycle {
		e := d.outEdge(u)
		d.evidence = append(d.evidence, CycleEdge{
			From:     u,
			To:       cycle[(i+1)%len(cycle)],
			Resource: e.rsrc,
			Mode:     e.Mode,
		})
	}
	evidence := d.evidence[start:len(d.evidence):len(d.evidence)]

	best := candidate{cost: -1}
	for i, u := range cycle {
		if d.outEdge(u).Mode != lock.NL {
			continue // outgoing cycle edge is W-labeled: u is mid-TRRP
		}
		// u is a junction: TDR-1 candidate.
		c1 := candidate{junction: u, cost: d.cfg.cost(u)}
		d.emit(TraceEvent{Kind: TraceCandidate, From: u, Cost: c1.cost})
		if better(c1, best, d.cfg.PreferAbortOnTie) {
			best = c1
		}
		if d.cfg.DisableTDR2 {
			continue
		}
		// Incoming cycle edge: from the predecessor in cycle order (the
		// closing edge v -> w for the first vertex).
		prev := cycle[(i+len(cycle)-1)%len(cycle)]
		if d.outEdge(prev).Mode == lock.NL {
			continue // incoming edge is H-labeled: TDR-2 does not apply
		}
		pr := d.verts[u].pr
		if !TDR2Applies(d.tb, u, pr) {
			continue
		}
		av, st := d.tb.PeekAVST(pr, u, d.peekAV[:0], d.peekST[:0])
		d.peekAV, d.peekST = av, st
		sum := 0.0
		for _, q := range st {
			sum += d.cfg.cost(q.Txn)
		}
		c := candidate{junction: u, cost: sum / 2, tdr2: true, resource: pr}
		d.emit(TraceEvent{Kind: TraceCandidate, From: u, Cost: c.cost, TDR2: true})
		if better(c, best, d.cfg.PreferAbortOnTie) {
			best = c
		}
	}

	d.apply(best, evidence)

	// Backtracking: clear the ancestor of every backtracked vertex
	// except w.
	for _, u := range d.rev {
		d.verts[u].ancestor = 0
	}
	return true
}

// apply carries out the selected resolution and records it, with the
// cycle evidence, for snapshot callers.
func (d *Detector) apply(c candidate, evidence []CycleEdge) {
	if !c.tdr2 {
		// TDR-1: the junction will be aborted at Step 3; its vertex is
		// dead for the rest of the walk.
		d.emit(TraceEvent{Kind: TraceVictimTDR1, From: c.junction})
		d.kill(c.junction)
		d.abortion = append(d.abortion, len(d.resolutions))
		d.resolutions = append(d.resolutions, Resolution{Cycle: evidence, Victim: c.junction})
		return
	}
	d.emit(TraceEvent{Kind: TraceVictimTDR2, From: c.junction})
	// TDR-2: reposition ST right after AV in the queue, rewire the
	// resource's W edges to the new order, boost ST costs so the same
	// requests are not repositioned forever, remember the resource for
	// Step 3 scheduling, and kill the AV vertices (Lemma 4.1: they can
	// no longer be in any deadlock cycle). AV and ST are split into the
	// scratch and kept in the queued-entry arena, which the Result
	// points into.
	av, st := d.tb.RepositionAVST(c.resource, c.junction, d.peekAV[:0], d.peekST[:0])
	d.peekAV, d.peekST = av, st
	start := len(d.queued)
	d.queued = append(d.queued, av...)
	mid := len(d.queued)
	d.queued = append(d.queued, st...)
	av, st = d.queued[start:mid:mid], d.queued[mid:len(d.queued):len(d.queued)]
	d.rewireQueue(c.resource)
	if d.cfg.Costs != nil {
		for _, q := range st {
			d.cfg.Costs.Set(q.Txn, d.cfg.boost(d.cfg.Costs.Cost(q.Txn)))
		}
	}
	d.change = append(d.change, c.resource)
	for _, q := range av {
		d.kill(q.Txn)
	}
	d.reposs = append(d.reposs, Reposition{Resource: c.resource, Junction: c.junction, AV: av, ST: st})
	d.resolutions = append(d.resolutions, Resolution{Cycle: evidence, TDR2: true, Victim: c.junction, Resource: c.resource})
}

// rewireQueue refreshes the W edges of rid's queue members after a
// repositioning, from the ECR-3 edges RuleEdges yields for the new
// order. A queue member's W edge is always the first entry of its
// waited list; only its successor changes.
func (d *Detector) rewireQueue(rid table.ResourceID) {
	r := d.tb.Resource(rid)
	if r == nil {
		return
	}
	d.rules = RuleEdges(d.rules[:0], r)
	for _, e := range d.rules {
		if v, ok := d.verts[e.From]; ok && e.W() && len(v.edges) > 0 && v.edges[0].Mode != lock.NL {
			v.edges[0].To = e.To
		}
	}
}
