package audit

import (
	"strings"
	"testing"

	"hwtwbg/internal/detect"
	"hwtwbg/internal/lock"
	"hwtwbg/internal/table"
	"hwtwbg/internal/twbg"
)

// deadlockedPair builds the canonical two-transaction cross deadlock:
// T1 holds A and waits for B, T2 holds B and waits for A, plus T4
// holding C with T5 queued behind it (blocked but not deadlocked).
func deadlockedPair(t *testing.T) *table.Table {
	t.Helper()
	tb := table.New()
	mustReq := func(txn table.TxnID, rid table.ResourceID, m lock.Mode, wantGranted bool) {
		t.Helper()
		g, err := tb.Request(txn, rid, m)
		if err != nil {
			t.Fatalf("Request(%v,%v,%v): %v", txn, rid, m, err)
		}
		if g != wantGranted {
			t.Fatalf("Request(%v,%v,%v) granted=%v, want %v", txn, rid, m, g, wantGranted)
		}
	}
	mustReq(1, "A", lock.X, true)
	mustReq(2, "B", lock.X, true)
	mustReq(1, "B", lock.X, false)
	mustReq(2, "A", lock.X, false)
	mustReq(4, "C", lock.X, true)
	mustReq(5, "C", lock.X, false)
	return tb
}

func TestChecksCleanOnRealDeadlock(t *testing.T) {
	tb := deadlockedPair(t)
	g := twbg.Build(tb)
	if vs := CheckGraph(g); len(vs) != 0 {
		t.Errorf("CheckGraph on a Build'd graph: %v", vs)
	}
	if vs := CheckTables([]*table.Table{tb}); len(vs) != 0 {
		t.Errorf("CheckTables on a valid table: %v", vs)
	}
	// The genuine resolution: the detector aborts T2, whose cycle is
	// T1 -(H@B)-> ... in either orientation; use the edge set Build saw.
	rs := []detect.Resolution{{
		Victim: 2,
		Cycle: []detect.CycleEdge{
			{From: 1, To: 2, Resource: "A", Mode: lock.X},
			{From: 2, To: 1, Resource: "B", Mode: lock.X},
		},
	}}
	if vs := CheckResolutions(g, tb, rs); len(vs) != 0 {
		t.Errorf("CheckResolutions on the genuine cycle: %v", vs)
	}
	// Resolve it the way the detector would and re-check acyclicity.
	post := tb.Clone()
	post.Abort(2)
	if vs := CheckAcyclic(post); len(vs) != 0 {
		t.Errorf("CheckAcyclic after aborting the victim: %v", vs)
	}
}

func TestCheckAcyclicFlagsSurvivingCycle(t *testing.T) {
	tb := deadlockedPair(t)
	vs := CheckAcyclic(tb)
	if len(vs) != 1 || vs[0].Rule != "acyclic" {
		t.Fatalf("CheckAcyclic on a deadlocked table = %v, want one acyclic violation", vs)
	}
}

func TestCheckTablesFlagsDoubleWait(t *testing.T) {
	// T2 waits in two shards at once — impossible for a sequential
	// transaction (Axiom 1), but each shard on its own looks fine.
	tb1 := table.New()
	tb1.Request(1, "A", lock.X)
	tb1.Request(2, "A", lock.X)
	tb2 := table.New()
	tb2.Request(3, "B", lock.X)
	tb2.Request(2, "B", lock.X)
	vs := CheckTables([]*table.Table{tb1, tb2})
	if len(vs) != 1 || vs[0].Rule != "single-wait" {
		t.Fatalf("CheckTables on a double-waiting txn = %v, want one single-wait violation", vs)
	}
}

func TestCheckTablesFlagsShortStamp(t *testing.T) {
	// T2 holds A in one shard and blocks on B in the other, stamped as
	// if it held nothing — each shard on its own looks fine, but the
	// detector would price it below the lock it holds.
	tb1 := table.New()
	tb1.Request(2, "A", lock.X)
	tb2 := table.New()
	tb2.Request(3, "B", lock.X)
	tb2.Request(2, "B", lock.X)
	vs := CheckTables([]*table.Table{tb1, tb2})
	if len(vs) != 1 || vs[0].Rule != "stamp" {
		t.Fatalf("CheckTables on a short stamp = %v, want one stamp violation", vs)
	}
	tb2.Abort(2)
	tb2.RequestHeld(2, "B", lock.X, 1)
	if vs := CheckTables([]*table.Table{tb1, tb2}); len(vs) != 0 {
		t.Fatalf("CheckTables on the manager's stamp = %v, want none", vs)
	}
}

func TestCheckResolutionsFlagsFabricatedCycles(t *testing.T) {
	tb := deadlockedPair(t)
	g := twbg.Build(tb)
	cases := []struct {
		name string
		rs   []detect.Resolution
		want string // substring of some violation detail
	}{
		{"no evidence", []detect.Resolution{{Victim: 2}}, "no cycle evidence"},
		{"not closed", []detect.Resolution{{Victim: 2, Cycle: []detect.CycleEdge{
			{From: 1, To: 2, Resource: "A", Mode: lock.X},
			{From: 1, To: 2, Resource: "B", Mode: lock.X},
		}}}, "not closed"},
		{"unknown vertex", []detect.Resolution{{Victim: 9, Cycle: []detect.CycleEdge{
			{From: 9, To: 1, Resource: "A", Mode: lock.X},
			{From: 1, To: 9, Resource: "B", Mode: lock.X},
		}}}, "not a vertex"},
		{"not deadlocked", []detect.Resolution{{Victim: 5, Cycle: []detect.CycleEdge{
			{From: 4, To: 5, Resource: "C", Mode: lock.X},
			{From: 5, To: 4, Resource: "C", Mode: lock.X},
		}}}, "not in the oracle's deadlock set"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vs := CheckResolutions(g, tb, tc.rs)
			for _, v := range vs {
				if v.Rule == "genuine-cycle" && strings.Contains(v.Detail, tc.want) {
					return
				}
			}
			t.Fatalf("violations %v contain no genuine-cycle violation matching %q", vs, tc.want)
		})
	}
}

func TestReportString(t *testing.T) {
	clean := Report{Seq: 1, Detector: "stw"}
	if !clean.Ok() || !strings.Contains(clean.String(), "ok") {
		t.Fatalf("clean report: Ok=%v String=%q", clean.Ok(), clean.String())
	}
	bad := Report{Seq: 2, Detector: "snapshot", Violations: []Violation{{Rule: "acyclic", Detail: "boom"}}}
	if bad.Ok() {
		t.Fatal("report with violations claims Ok")
	}
	for _, want := range []string{"snapshot", "acyclic", "boom", "1 violation"} {
		if !strings.Contains(bad.String(), want) {
			t.Fatalf("bad report string %q missing %q", bad.String(), want)
		}
	}
}
