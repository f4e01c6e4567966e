// Package continuous implements the continuous companion of the
// periodic algorithm — the paper presents its periodic scheme "as a
// companion of the continuous one (17)" (Park & Scheuermann,
// COMPSAC '91). The full text of [17] is not available, so this
// reconstruction applies the identical H/W-TWBG machinery (ECR edges,
// TRRP junctions, TDR-1/TDR-2 victim selection) at the only moment a
// new deadlock can appear in a continuous regime: immediately after a
// lock request blocks.
//
// Invariant of continuous operation: between activations the system is
// deadlock-free, so any cycle must pass through the transaction that
// just blocked. Detection therefore searches only cycles through that
// transaction, in O(n+e) per activation, and resolution applies TDR
// immediately (there is no Step 3 batch: a TDR-2 repositioning
// schedules its queue on the spot, and a TDR-1 victim aborts on the
// spot, which may grant other waiters).
package continuous

import (
	"hwtwbg/internal/detect"
	"hwtwbg/internal/lock"
	"hwtwbg/internal/table"
	"hwtwbg/internal/twbg"
)

// Detector is the continuous H/W-TWBG detector.
type Detector struct {
	tb *table.Table
	// Cost prices victim candidates; nil means every transaction costs 1.
	Cost func(table.TxnID) float64
	// Costs, when non-nil, is a mutable cost store consulted before
	// Cost and boosted after TDR-2 repositionings, exactly as in the
	// periodic algorithm.
	Costs *detect.CostTable
	// DisableTDR2 restricts resolution to aborts.
	DisableTDR2 bool

	// stats
	cycles         int
	aborts         int
	repositionings int
}

// New returns a continuous detector over tb.
func New(tb *table.Table) *Detector { return &Detector{tb: tb} }

// Name identifies the strategy in reports.
func (d *Detector) Name() string { return "park-continuous" }

// Stats returns cumulative (cycles resolved, victims aborted, TDR-2
// repositionings).
func (d *Detector) Stats() (cycles, aborts, repositionings int) {
	return d.cycles, d.aborts, d.repositionings
}

func (d *Detector) cost(t table.TxnID) float64 {
	if d.Costs != nil {
		return d.Costs.Cost(t)
	}
	if d.Cost != nil {
		return d.Cost(t)
	}
	return 1
}

// OnBlocked resolves every deadlock involving the newly blocked
// transaction, returning the victims aborted (possibly none when TDR-2
// sufficed).
func (d *Detector) OnBlocked(txn table.TxnID, now int64) []table.TxnID {
	var victims []table.TxnID
	for {
		g := twbg.Build(d.tb)
		cyc := cycleThrough(g, txn)
		if cyc == nil {
			return victims
		}
		d.cycles++
		if v, aborted := d.resolve(cyc); aborted {
			victims = append(victims, v)
			if v == txn {
				return victims
			}
		}
	}
}

// OnTick is a no-op: the scheme is continuous.
func (d *Detector) OnTick(int64) []table.TxnID { return nil }

// Forget is a no-op: the graph is rebuilt from the table each time.
func (d *Detector) Forget(table.TxnID) {}

// ResolveAll clears every deadlock in the table regardless of which
// transaction closed it (used when attaching the detector to a table
// with pre-existing tangles, e.g. in tests and tools).
func (d *Detector) ResolveAll() (victims []table.TxnID) {
	for {
		g := twbg.Build(d.tb)
		resolved := false
		for _, v := range g.Vertices() {
			if cyc := cycleThrough(g, v); cyc != nil {
				d.cycles++
				if victim, aborted := d.resolve(cyc); aborted {
					victims = append(victims, victim)
				}
				resolved = true
				break
			}
		}
		if !resolved {
			return victims
		}
	}
}

// cycleThrough returns the edges of a cycle passing through start, in
// cycle order starting at start, or nil.
func cycleThrough(g *twbg.Graph, start table.TxnID) []twbg.Edge {
	onPath := map[table.TxnID]bool{}
	var path []twbg.Edge
	var dfs func(v table.TxnID) bool
	dfs = func(v table.TxnID) bool {
		onPath[v] = true
		for _, e := range g.Out(v) {
			if e.To == start {
				path = append(path, e)
				return true
			}
			if onPath[e.To] {
				continue
			}
			path = append(path, e)
			if dfs(e.To) {
				return true
			}
			path = path[:len(path)-1]
		}
		// No un-visit of onPath: any cycle through start that runs via
		// v would have been found from v just now, so v is dead for
		// this search. This keeps the walk O(n+e).
		return false
	}
	if dfs(start) {
		return path
	}
	return nil
}

// resolve applies TDR to one cycle, returning the aborted victim (if
// resolution was by TDR-1).
func (d *Detector) resolve(cycle []twbg.Edge) (victim table.TxnID, aborted bool) {
	type candidate struct {
		junction table.TxnID
		cost     float64
		tdr2     bool
		resource table.ResourceID
	}
	best := candidate{cost: -1}
	better := func(c candidate) bool {
		switch {
		case best.cost < 0:
			return true
		case c.cost != best.cost:
			return c.cost < best.cost
		case c.tdr2 != best.tdr2:
			return c.tdr2
		default:
			return c.junction < best.junction
		}
	}
	n := len(cycle)
	for i, e := range cycle {
		// e leaves cycle vertex e.From; the junction test is on the
		// outgoing edge's label.
		if e.Label != twbg.H {
			continue
		}
		u := e.From
		if c := (candidate{junction: u, cost: d.cost(u)}); better(c) {
			best = c
		}
		if d.DisableTDR2 {
			continue
		}
		incoming := cycle[(i-1+n)%n]
		if incoming.Label != twbg.W {
			continue
		}
		rid, bm, ok := d.tb.WaitingOn(u)
		if !ok || d.tb.Upgrading(u) {
			continue
		}
		r := d.tb.Resource(rid)
		if r == nil || !lock.Comp(bm, r.TotalMode()) {
			continue
		}
		_, st := d.tb.PeekAVST(rid, u, nil, nil)
		sum := 0.0
		for _, q := range st {
			sum += d.cost(q.Txn)
		}
		if c := (candidate{junction: u, cost: sum / 2, tdr2: true, resource: rid}); better(c) {
			best = c
		}
	}
	if best.cost < 0 {
		panic("continuous: cycle without a junction transaction (violates Lemma 3)")
	}
	if best.tdr2 {
		_, st := d.tb.RepositionAVST(best.resource, best.junction, nil, nil)
		if d.Costs != nil {
			for _, q := range st {
				d.Costs.Set(q.Txn, d.Costs.Cost(q.Txn)+1)
			}
		}
		// Continuous resolution schedules the queue immediately.
		d.tb.ScheduleQueue(best.resource)
		d.repositionings++
		return 0, false
	}
	d.tb.Abort(best.junction)
	d.aborts++
	return best.junction, true
}
