package twbg

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"hwtwbg/internal/lock"
	"hwtwbg/internal/table"
)

func mustReq(t *testing.T, tb *table.Table, txn table.TxnID, rid table.ResourceID, m lock.Mode, wantGrant bool) {
	t.Helper()
	g, err := tb.Request(txn, rid, m)
	if err != nil {
		t.Fatalf("Request(%v,%s,%v): %v", txn, rid, m, err)
	}
	if g != wantGrant {
		t.Fatalf("Request(%v,%s,%v): granted=%v, want %v\n%s", txn, rid, m, g, wantGrant, tb)
	}
}

// example41 builds the exact situation of Example 4.1 of the paper.
func example41(t *testing.T) *table.Table {
	t.Helper()
	tb := table.New()
	mustReq(t, tb, 1, "R1", lock.IX, true)
	mustReq(t, tb, 2, "R1", lock.IS, true)
	mustReq(t, tb, 3, "R1", lock.IX, true)
	mustReq(t, tb, 4, "R1", lock.IS, true)
	mustReq(t, tb, 7, "R2", lock.IS, true)
	mustReq(t, tb, 2, "R1", lock.S, false)
	mustReq(t, tb, 1, "R1", lock.S, false)
	mustReq(t, tb, 5, "R1", lock.IX, false)
	mustReq(t, tb, 6, "R1", lock.S, false)
	mustReq(t, tb, 7, "R1", lock.IX, false)
	mustReq(t, tb, 8, "R2", lock.X, false)
	mustReq(t, tb, 9, "R2", lock.IX, false)
	mustReq(t, tb, 3, "R2", lock.S, false)
	mustReq(t, tb, 4, "R2", lock.X, false)
	return tb
}

// example51 builds the situation of Example 5.1.
func example51(t *testing.T) *table.Table {
	t.Helper()
	tb := table.New()
	mustReq(t, tb, 1, "R1", lock.S, true)
	mustReq(t, tb, 2, "R2", lock.S, true)
	mustReq(t, tb, 3, "R2", lock.S, true)
	mustReq(t, tb, 2, "R1", lock.X, false)
	mustReq(t, tb, 3, "R1", lock.S, false)
	mustReq(t, tb, 1, "R2", lock.X, false)
	return tb
}

func edgeSet(g *Graph) map[string]bool {
	s := make(map[string]bool)
	for _, e := range g.Edges() {
		s[fmt.Sprintf("%v->%v:%v", e.From, e.To, e.Label)] = true
	}
	return s
}

// TestExample41Graph checks Figure 4.1 of the paper edge by edge
// (experiment E4).
func TestExample41Graph(t *testing.T) {
	g := Build(example41(t))
	want := []string{
		// R1 ECR-1: T1 blocks T2's S upgrade (gm IX); T3's IX blocks both upgrades.
		"T1->T2:H", "T3->T1:H", "T3->T2:H",
		// R1 ECR-2: T5 conflicts with T1 and T2 (their bm); T6 with T3 (gm IX);
		// T4 blocks nobody.
		"T1->T5:H", "T2->T5:H", "T3->T6:H",
		// R1 ECR-3.
		"T5->T6:W", "T6->T7:W",
		// R2 ECR-2 and ECR-3.
		"T7->T8:H", "T8->T9:W", "T9->T3:W", "T3->T4:W",
	}
	got := edgeSet(g)
	if len(got) != len(want) {
		t.Errorf("edge count = %d, want %d: %v", len(got), len(want), g.Edges())
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("missing edge %s", w)
		}
	}
	if g.NumEdges() != len(want) {
		t.Errorf("NumEdges = %d", g.NumEdges())
	}
}

// TestExample41Cycles verifies the four elementary cycles the paper
// counts in Figure 4.1.
func TestExample41Cycles(t *testing.T) {
	g := Build(example41(t))
	cycles := g.Cycles(0)
	if len(cycles) != 4 {
		t.Fatalf("found %d cycles, want 4: %v", len(cycles), cycles)
	}
	var canon []string
	for _, c := range cycles {
		parts := make([]string, len(c))
		for i, v := range c {
			parts[i] = v.String()
		}
		canon = append(canon, strings.Join(parts, ","))
	}
	sort.Strings(canon)
	want := []string{
		"T1,T2,T5,T6,T7,T8,T9,T3", // the cycle the paper walks through
		"T1,T5,T6,T7,T8,T9,T3",
		"T2,T5,T6,T7,T8,T9,T3",
		"T3,T6,T7,T8,T9",
	}
	sort.Strings(want)
	for i := range want {
		if canon[i] != want[i] {
			t.Errorf("cycle %d = %s, want %s", i, canon[i], want[i])
		}
	}
	if !g.HasCycle() {
		t.Error("HasCycle must be true")
	}
}

// TestExample41TRRPs verifies the TRRP decomposition, including the four
// TRRPs of the paper's chosen cycle: (T1,T2), (T2,T5,T6,T7),
// (T7,T8,T9,T3), (T3,T1).
func TestExample41TRRPs(t *testing.T) {
	g := Build(example41(t))
	var reprs []string
	for _, p := range g.TRRPs() {
		reprs = append(reprs, p.String())
	}
	// One TRRP per H edge: 7 H edges.
	if len(reprs) != 7 {
		t.Fatalf("got %d TRRPs: %v", len(reprs), reprs)
	}
	for _, want := range []string{
		"(T1, T2)",
		"(T2, T5, T6, T7)",
		"(T7, T8, T9, T3, T4)", // full queue tail; the cycle uses its prefix
		"(T3, T1)",
		"(T3, T2)",
		"(T1, T5, T6, T7)",
		"(T3, T6, T7)",
	} {
		found := false
		for _, r := range reprs {
			if r == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing TRRP %s in %v", want, reprs)
		}
	}
}

// TestExample51Graph checks Figure 5.2: cycles {T1,T2,T3} and {T1,T2}.
func TestExample51Graph(t *testing.T) {
	g := Build(example51(t))
	want := []string{"T1->T2:H", "T2->T3:W", "T2->T1:H", "T3->T1:H"}
	got := edgeSet(g)
	if len(got) != len(want) {
		t.Errorf("edges = %v", g.Edges())
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("missing edge %s", w)
		}
	}
	cycles := g.Cycles(0)
	if len(cycles) != 2 {
		t.Fatalf("cycles = %v, want 2", cycles)
	}
}

// TestExample41Properties: after TDR-2 repositioning and rescheduling
// (the paper's modified situation) the graph must be acyclic
// (Figure 4.2) — here built through the table operations directly.
func TestExample41ModifiedAcyclic(t *testing.T) {
	tb := example41(t)
	tb.RepositionAVST("R2", 3, nil, nil)
	tb.ScheduleQueue("R2")
	g := Build(tb)
	if g.HasCycle() {
		t.Fatalf("modified situation must be acyclic:\n%s\n%s", tb, g.DOT())
	}
	if Deadlocked(tb) {
		t.Fatal("modified situation must not be deadlocked")
	}
}

// TestCycleIffDeadlock is the Theorem 1 property test (experiment E13):
// on thousands of random lock-table states, the H/W-TWBG has a cycle
// exactly when the ground-truth oracle says the system is deadlocked.
func TestCycleIffDeadlock(t *testing.T) {
	modes := []lock.Mode{lock.IS, lock.IX, lock.S, lock.SIX, lock.X}
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb := table.New()
		for step := 0; step < 1500; step++ {
			txn := table.TxnID(1 + rng.Intn(10))
			switch op := rng.Intn(12); {
			case op < 8:
				if tb.Blocked(txn) {
					continue
				}
				rid := table.ResourceID(fmt.Sprintf("R%d", 1+rng.Intn(5)))
				if _, err := tb.Request(txn, rid, modes[rng.Intn(len(modes))]); err != nil {
					t.Fatal(err)
				}
			case op < 10:
				if tb.Blocked(txn) {
					continue
				}
				if _, err := tb.Release(txn); err != nil {
					t.Fatal(err)
				}
			default:
				tb.Abort(txn)
			}
			g := Build(tb)
			cyc := g.HasCycle()
			dead := Deadlocked(tb)
			if cyc != dead {
				t.Fatalf("seed %d step %d: HasCycle=%v but Deadlocked=%v\n%s\n%s",
					seed, step, cyc, dead, tb, g.DOT())
			}
			if dead {
				// Clear the deadlock so the run continues: abort one
				// member of the deadlock set.
				set := DeadlockSet(tb)
				tb.Abort(set[rng.Intn(len(set))])
			}
		}
	}
}

// TestGraphStructuralLemmas checks Lemmas 1-3 on random deadlocked
// states: every cycle contains at least two H edges (hence at least two
// TRRPs) and no cycle is W-only.
func TestGraphStructuralLemmas(t *testing.T) {
	modes := []lock.Mode{lock.IS, lock.IX, lock.S, lock.SIX, lock.X}
	checked := 0
	for seed := int64(100); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb := table.New()
		for step := 0; step < 400; step++ {
			txn := table.TxnID(1 + rng.Intn(8))
			if tb.Blocked(txn) {
				continue
			}
			rid := table.ResourceID(fmt.Sprintf("R%d", 1+rng.Intn(4)))
			if _, err := tb.Request(txn, rid, modes[rng.Intn(len(modes))]); err != nil {
				t.Fatal(err)
			}
			g := Build(tb)
			for _, cyc := range g.Cycles(50) {
				checked++
				hCount := 0
				for i, v := range cyc {
					next := cyc[(i+1)%len(cyc)]
					found := false
					for _, e := range g.Out(v) {
						if e.To == next {
							found = true
							if e.Label == H {
								hCount++
							}
							break
						}
					}
					if !found {
						t.Fatalf("cycle %v has no edge %v->%v", cyc, v, next)
					}
				}
				if hCount < 2 {
					t.Fatalf("cycle %v has %d H edges; Lemma 3 requires >= 2\n%s", cyc, hCount, tb)
				}
			}
			if g.HasCycle() {
				set := DeadlockSet(tb)
				tb.Abort(set[rng.Intn(len(set))])
			}
		}
	}
	if checked == 0 {
		t.Fatal("no cycles were generated; the property was never exercised")
	}
}

// TestAxiom1 verifies that no transaction ever has more than one
// outgoing W edge (a transaction is in at most one queue).
func TestAxiom1SingleWEdge(t *testing.T) {
	g := Build(example41(t))
	for _, v := range g.Vertices() {
		wCount := 0
		for _, e := range g.Out(v) {
			if e.Label == W {
				wCount++
			}
		}
		if wCount > 1 {
			t.Errorf("%v has %d outgoing W edges", v, wCount)
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	g := Build(table.New())
	if g.HasCycle() || g.NumEdges() != 0 || len(g.Vertices()) != 0 {
		t.Fatal("empty table must produce an empty graph")
	}
	if cs := g.Cycles(0); len(cs) != 0 {
		t.Fatalf("cycles = %v", cs)
	}
	if Deadlocked(table.New()) {
		t.Fatal("empty table must not be deadlocked")
	}
}

func TestCyclesLimit(t *testing.T) {
	g := Build(example41(t))
	if cs := g.Cycles(2); len(cs) != 2 {
		t.Fatalf("limit 2 returned %d cycles", len(cs))
	}
	if cs := g.Cycles(1); len(cs) != 1 {
		t.Fatalf("limit 1 returned %d cycles", len(cs))
	}
}

func TestDOT(t *testing.T) {
	g := Build(example51(t))
	dot := g.DOT()
	for _, want := range []string{"digraph HWTWBG", "T1 -> T2", "style=dashed", "style=solid", "W@R1"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
}

func TestHasEdgeAndLabels(t *testing.T) {
	g := Build(example51(t))
	if !g.HasEdge(1, 2) || g.HasEdge(3, 2) {
		t.Error("HasEdge wrong")
	}
	if H.String() != "H" || W.String() != "W" {
		t.Error("label strings wrong")
	}
	e := Edge{From: 1, To: 2, Label: H, Resource: "R1"}
	if e.String() != "T1->T2[H@R1]" {
		t.Errorf("Edge.String() = %q", e.String())
	}
}

// TestDeadlockSetMinimalExample: the classic two-transaction deadlock.
func TestDeadlockSetTwoTxn(t *testing.T) {
	tb := table.New()
	mustReq(t, tb, 1, "A", lock.X, true)
	mustReq(t, tb, 2, "B", lock.X, true)
	mustReq(t, tb, 1, "B", lock.X, false)
	mustReq(t, tb, 2, "A", lock.X, false)
	set := DeadlockSet(tb)
	if len(set) != 2 || set[0] != 1 || set[1] != 2 {
		t.Fatalf("DeadlockSet = %v", set)
	}
	g := Build(tb)
	if !g.HasCycle() {
		t.Fatal("two-txn deadlock must have a cycle")
	}
}

// TestConversionDeadlockDetected: the S->X double-upgrade deadlock is a
// cycle made purely of ECR-1 edges between two blocked upgraders.
func TestConversionDeadlockDetected(t *testing.T) {
	tb := table.New()
	mustReq(t, tb, 1, "A", lock.S, true)
	mustReq(t, tb, 2, "A", lock.S, true)
	mustReq(t, tb, 1, "A", lock.X, false)
	mustReq(t, tb, 2, "A", lock.X, false)
	g := Build(tb)
	if !g.HasEdge(1, 2) || !g.HasEdge(2, 1) {
		t.Fatalf("expected mutual H edges, got %v", g.Edges())
	}
	if !g.HasCycle() || !Deadlocked(tb) {
		t.Fatal("conversion deadlock must be detected")
	}
}

func BenchmarkBuildExample41(b *testing.B) {
	tb := table.New()
	reqs := []struct {
		txn  table.TxnID
		rid  table.ResourceID
		mode lock.Mode
	}{
		{1, "R1", lock.IX}, {2, "R1", lock.IS}, {3, "R1", lock.IX}, {4, "R1", lock.IS},
		{7, "R2", lock.IS}, {2, "R1", lock.S}, {1, "R1", lock.S}, {5, "R1", lock.IX},
		{6, "R1", lock.S}, {7, "R1", lock.IX}, {8, "R2", lock.X}, {9, "R2", lock.IX},
		{3, "R2", lock.S}, {4, "R2", lock.X},
	}
	for _, r := range reqs {
		if _, err := tb.Request(r.txn, r.rid, r.mode); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := Build(tb)
		if !g.HasCycle() {
			b.Fatal("must have cycle")
		}
	}
}
