// Package audit re-verifies the paper's proved properties on live data
// structures. The detector's correctness rests on theorems (cycles in
// the H/W-TWBG are exactly the deadlocks — Theorem 1; the TDR resolves
// every cycle, TDR-2 without creating new ones — Theorem 4.1 / Lemma
// 4.1; queues keep the UPR and total-mode invariants — Theorem 3.1) and
// the code carries them as comments. This package carries them as
// checks: after every activation of a manager opened with the test-only
// audit hook, in every build, each property is recomputed from scratch —
// the graph rebuilt by the ECR rules, deadlocks re-derived by the
// Definition-1 oracle, tables re-validated — and any divergence between
// what the detector did and what the theorems allow becomes a
// structured Violation that fails the test run. The theorems assume
// sequential transactions (Axiom 1: one wait per transaction), so the
// graph and resolution checks judge only an input that satisfies it;
// a snapshot torn across shards may not (see Report.Torn).
//
// The checks are deliberately independent of the detector's own
// bookkeeping: they never read its TST, cursors or cost cache, only the
// tables and the resolutions it reported.
package audit

import (
	"fmt"
	"sort"
	"strings"

	"hwtwbg/internal/detect"
	"hwtwbg/internal/table"
	"hwtwbg/internal/twbg"
)

// Violation is one broken invariant.
type Violation struct {
	// Rule names the property: "w-successor", "trrp-cover",
	// "table-invariant", "single-wait", "genuine-cycle", "acyclic".
	Rule string
	// Detail says what was observed.
	Detail string
}

func (v Violation) String() string { return v.Rule + ": " + v.Detail }

// Report is one activation's audit outcome.
type Report struct {
	Seq      int    // 1-based audited-activation number
	Detector string // "stw" or "snapshot"
	// Torn lists, in id order, the transactions a snapshot activation's
	// input showed waiting at more than one resource. Shards copied at
	// different instants broke Axiom 1, which Theorem 1 and Lemma 4.1
	// presuppose, so CheckGraph and CheckResolutions were skipped for
	// this activation; the acyclicity and live-table checks still ran.
	Torn       []table.TxnID
	Violations []Violation
}

// Ok reports whether every property held.
func (r Report) Ok() bool { return len(r.Violations) == 0 }

func (r Report) String() string {
	s := fmt.Sprintf("audit %d (%s)", r.Seq, r.Detector)
	if len(r.Torn) > 0 {
		s += fmt.Sprintf(": torn snapshot, %v wait at more than one resource", r.Torn)
	}
	if r.Ok() {
		return s + ": ok"
	}
	parts := make([]string, len(r.Violations))
	for i, v := range r.Violations {
		parts[i] = v.String()
	}
	return fmt.Sprintf("%s: %d violation(s): %s", s, len(r.Violations), strings.Join(parts, "; "))
}

// CheckGraph verifies the H/W-TWBG's structural lemmas on a graph built
// by the ECR rules:
//
//   - every transaction has at most one W successor (a transaction
//     waits in at most one queue, with one adjacent follower — the
//     property behind Lemma 1's "no W-only cycle");
//   - the TRRP decomposition covers the graph as Lemma 4.1 requires:
//     every TRRP is one H edge followed by the W chain below it in the
//     same resource's queue, and every edge lies on at least one TRRP.
func CheckGraph(g *twbg.Graph) []Violation {
	var out []Violation
	wOut := map[table.TxnID]int{}
	for _, e := range g.Edges() {
		if e.Label == twbg.W {
			wOut[e.From]++
		}
	}
	for _, v := range g.Vertices() {
		if wOut[v] > 1 {
			out = append(out, Violation{"w-successor", fmt.Sprintf("%v has %d W successors, want at most 1", v, wOut[v])})
		}
	}

	type ekey struct {
		from, to table.TxnID
		label    twbg.Label
		resource table.ResourceID
	}
	key := func(e twbg.Edge) ekey { return ekey{e.From, e.To, e.Label, e.Resource} }
	covered := map[ekey]bool{}
	for _, p := range g.TRRPs() {
		if len(p.Edges) == 0 || p.Edges[0].Label != twbg.H {
			out = append(out, Violation{"trrp-cover", fmt.Sprintf("TRRP %v does not start with an H edge", p)})
			continue
		}
		covered[key(p.Edges[0])] = true
		prev := p.Edges[0]
		for _, e := range p.Edges[1:] {
			if e.Label != twbg.W || e.Resource != p.Resource || e.From != prev.To {
				out = append(out, Violation{"trrp-cover", fmt.Sprintf("TRRP %v is not an H edge followed by its queue's W chain (edge %v)", p, e)})
			}
			covered[key(e)] = true
			prev = e
		}
	}
	for _, e := range g.Edges() {
		if !covered[key(e)] {
			out = append(out, Violation{"trrp-cover", fmt.Sprintf("edge %v lies on no TRRP; the decomposition does not cover the graph", e)})
		}
	}
	return out
}

// CheckTables verifies the queue invariants on every shard table —
// blocked-prefix shape, total-mode fold, pairwise-compatible grants, no
// stranded grantable upgrader (Theorem 3.1), UPR positioning, wait
// bookkeeping and stamps (table.Validate) — plus their cross-shard
// halves: a transaction waits in at most one shard (Axiom 1), and its
// wait's stamp, the victim price, counts at least the locks it holds
// across all of them.
func CheckTables(tables []*table.Table) []Violation {
	var out []Violation
	waits := map[table.TxnID]int{}
	stamps := map[table.TxnID]int{}
	var ids []table.TxnID
	for i, tb := range tables {
		if err := tb.Validate(); err != nil {
			out = append(out, Violation{"table-invariant", fmt.Sprintf("shard %d: %v", i, err)})
		}
		for _, id := range tb.Txns() {
			if _, _, ok := tb.WaitingOn(id); ok {
				if waits[id] == 0 {
					ids = append(ids, id)
				}
				waits[id]++
				stamps[id] = tb.WaitHeld(id)
			}
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if waits[id] > 1 {
			out = append(out, Violation{"single-wait", fmt.Sprintf("%v waits in %d shards; a sequential transaction has at most one outstanding request (Axiom 1)", id, waits[id])})
		}
		held := 0
		for _, tb := range tables {
			held += tb.HeldCount(id)
		}
		if stamps[id] < held {
			out = append(out, Violation{"stamp", fmt.Sprintf("%v's wait is stamped %d, but it holds %d locks across the shards", id, stamps[id], held)})
		}
	}
	return out
}

// CheckResolutions verifies that every cycle the detector reported was
// a genuine deadlock of the pre-activation state:
//
//   - the cycle's edge list is closed (each To is the next From);
//   - its transactions are vertices of the independently rebuilt
//     pre-activation graph, and members of the Definition-1 oracle's
//     deadlock set computed on pre (Theorem 1: cycle ⇔ deadlock) —
//     including cycles found after earlier TDR-2 repositionings, since
//     repositioning must not manufacture deadlocked-looking states
//     (Lemma 4.1);
//   - the first cycle's edges exist verbatim in the pre-activation
//     graph (later cycles may legitimately ride on repositioned W
//     edges, so only their vertices are checked).
//
// pre may be nil when no pre-activation table is available; the oracle
// check is then skipped.
func CheckResolutions(g *twbg.Graph, pre *table.Table, rs []detect.Resolution) []Violation {
	var out []Violation
	var dead map[table.TxnID]bool
	if pre != nil {
		dead = map[table.TxnID]bool{}
		for _, id := range twbg.DeadlockSet(pre) {
			dead[id] = true
		}
	}
	verts := map[table.TxnID]bool{}
	for _, v := range g.Vertices() {
		verts[v] = true
	}
	for i, r := range rs {
		if len(r.Cycle) == 0 {
			out = append(out, Violation{"genuine-cycle", fmt.Sprintf("resolution %d (victim %v) carries no cycle evidence", i, r.Victim)})
			continue
		}
		for j, e := range r.Cycle {
			next := r.Cycle[(j+1)%len(r.Cycle)]
			if e.To != next.From {
				out = append(out, Violation{"genuine-cycle", fmt.Sprintf("resolution %d: edge list not closed at %v->%v / %v->%v", i, e.From, e.To, next.From, next.To)})
			}
			if !verts[e.From] {
				out = append(out, Violation{"genuine-cycle", fmt.Sprintf("resolution %d: %v is not a vertex of the pre-activation graph", i, e.From)})
			}
			if dead != nil && !dead[e.From] {
				out = append(out, Violation{"genuine-cycle", fmt.Sprintf("resolution %d: %v is not in the oracle's deadlock set; the reported cycle is not a genuine deadlock", i, e.From)})
			}
			if i == 0 && !g.HasEdge(e.From, e.To) {
				out = append(out, Violation{"genuine-cycle", fmt.Sprintf("resolution 0: edge %v->%v does not exist in the pre-activation graph", e.From, e.To)})
			}
		}
	}
	return out
}

// CheckAcyclic verifies Theorem 4.1's outcome: after the activation
// applied its resolutions (aborts and TDR-2 repositionings), the
// rebuilt H/W-TWBG contains no cycle.
func CheckAcyclic(src twbg.Source) []Violation {
	if twbg.Build(src).HasCycle() {
		return []Violation{{"acyclic", "post-resolution H/W-TWBG still contains a cycle; the TDR did not resolve every deadlock (Theorem 4.1)"}}
	}
	return nil
}
