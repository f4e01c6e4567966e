package detect

import (
	"slices"
	"testing"

	"hwtwbg/internal/lock"
	"hwtwbg/internal/table"
)

// TestTornSnapshotTDR2Terminates merges two shard copies taken at
// different instants, in which T1 is queued at a resource of each — a
// state no consistent table can reach, but one the manager's per-shard
// copy-out can show. T1's blocked mode on q (S) is compatible with the
// total mode of z, where its queue entry asks for X: as a TDR-2
// candidate its AV is empty, repositioning moves and kills nothing, and
// the walk used to re-find the cycle forever. The run must end, with the
// cycle resolved (the manager's live validation then drops it).
func TestTornSnapshotTDR2Terminates(t *testing.T) {
	request := func(tb *table.Table, txn table.TxnID, rid table.ResourceID, m lock.Mode, wantGrant bool) {
		t.Helper()
		granted, err := tb.Request(txn, rid, m)
		if err != nil || granted != wantGrant {
			t.Fatalf("T%d %s %v: granted=%v err=%v, want granted=%v", txn, rid, m, granted, err, wantGrant)
		}
	}
	// Shard 0: T1 -k1-> T2 -q-> T3 -q(W)-> T1, a genuine cycle there.
	a := table.New()
	request(a, 1, "k1", lock.X, true)
	request(a, 2, "q", lock.X, true)
	request(a, 2, "k1", lock.X, false)
	request(a, 3, "q", lock.X, false)
	request(a, 1, "q", lock.S, false)
	// Shard 1, copied at another instant: T1 waits for X on z behind an
	// IS holder.
	b := table.New()
	request(b, 8, "z", lock.IS, true)
	request(b, 1, "z", lock.X, false)

	s := table.NewSnapshot()
	s.BeginRound(2)
	s.CopyShard(a, 0, 1)
	s.CopyShard(b, 1, 1)
	s.FinishShard(0)
	s.FinishShard(1)
	s.MergeShards([]int{0, 1})

	cycles := 0
	d := New(s.View(), Config{Trace: func(ev TraceEvent) {
		if ev.Kind == TraceCycle {
			if cycles++; cycles > 100 {
				panic("detector keeps finding the same cycle on a torn snapshot")
			}
		}
	}})
	res := d.Run()
	if res.CyclesSearched == 0 || len(res.Resolutions) != res.CyclesSearched {
		t.Fatalf("result = %+v, want the cycle found and resolved", res)
	}
	for _, r := range res.Resolutions {
		if r.TDR2 && r.Victim == 1 && r.Resource == "z" {
			t.Fatalf("TDR-2 applied at a junction outside its own AV: %+v", r)
		}
	}
}

// TestTornSnapshotDanglingWaitTerminates merges the TDR-2 tableau with
// half of it missing. A copy takes only resources somebody waits on, so
// a shard copied at an instant when its resource had (or has again) no
// queue contributes nothing: here q is on record — T1 holds it, T2 and
// T3 queue for it — while h, which T3 holds and T1 waits for in the
// consistent state, is not. T3 is then a waiter whose own holdings are
// absent and T1 a holder with no wait: the edges T1→T2→T3 lead nowhere,
// and Step 2 must run off the end of them rather than look for the rest.
func TestTornSnapshotDanglingWaitTerminates(t *testing.T) {
	a := table.New()
	for _, req := range []struct {
		txn  table.TxnID
		mode lock.Mode
		held int // locks held across both shards, as a manager stamps the request
	}{{1, lock.IS, 0}, {2, lock.X, 0}, {3, lock.S, 1}} {
		if _, err := a.RequestHeld(req.txn, "q", req.mode, req.held); err != nil {
			t.Fatal(err)
		}
	}
	b := table.New() // h's shard at an instant when nobody waited on h
	if granted, err := b.Request(3, "h", lock.X); err != nil || !granted {
		t.Fatalf("T3 X h: granted=%v err=%v", granted, err)
	}

	s := table.NewSnapshot()
	s.BeginRound(2)
	s.CopyShard(a, 0, 1)
	s.CopyShard(b, 1, 1)
	s.FinishShard(0)
	s.FinishShard(1)
	s.MergeShards([]int{0, 1})
	if s.ActiveTable().Resource("h") != nil {
		t.Fatal("uncontended h was copied")
	}

	res := New(s.View(), Config{}).Run()
	if res.Vertices != 3 || res.Edges != 3 {
		t.Fatalf("graph has %d vertices and %d edges, want T1->T2->T3 and the end-of-queue mark", res.Vertices, res.Edges)
	}
	if res.CyclesSearched != 0 || len(res.Resolutions) != 0 || len(res.Aborted) != 0 {
		t.Fatalf("result = %+v, want nothing found on half a cycle", res)
	}
	// The count a victim would be priced by is whole all the same: T3's
	// wait on q carries its lock on h.
	if n := s.HeldCount(3); n != 1 {
		t.Fatalf("HeldCount(3) = %d, want the lock on h counted", n)
	}
}

// TestTornSnapshotWOnlyCycleIsNoDeadlock merges two shard copies that
// each show T1 and T2 queued behind a holder, in opposite orders — T1
// was granted r1 and moved on to r2's queue between the two instants,
// T2 the other way round. The W edges T1→T2 (r1) and T2→T1 (r2) close a
// cycle with no H edge in it, hence no junction, which Lemma 3 rules
// out for any state a table can be in; the detector used to panic on
// it. Nobody is deadlocked, so nothing may be proposed.
func TestTornSnapshotWOnlyCycleIsNoDeadlock(t *testing.T) {
	shard := func(holder table.TxnID, rid table.ResourceID, first, second table.TxnID) *table.Table {
		tb := table.New()
		for _, txn := range []table.TxnID{holder, first, second} {
			if _, err := tb.Request(txn, rid, lock.X); err != nil {
				t.Fatal(err)
			}
		}
		return tb
	}
	a, b := shard(9, "r1", 1, 2), shard(8, "r2", 2, 1)
	s := table.NewSnapshot()
	s.BeginRound(2)
	s.CopyShard(a, 0, 1)
	s.CopyShard(b, 1, 1)
	s.FinishShard(0)
	s.FinishShard(1)
	s.MergeShards([]int{0, 1})

	var trace []TraceEvent
	d := New(s.View(), Config{Trace: func(ev TraceEvent) { trace = append(trace, ev) }})
	res := d.Run()
	// The walk must have met the cycle — stepped over T2 -> T1 while T1
	// was still on its path — and reported none: the trace and
	// CyclesSearched agree.
	at := func(kind TraceKind, from, to table.TxnID) int {
		return slices.IndexFunc(trace, func(ev TraceEvent) bool { return ev.Kind == kind && ev.From == from && ev.To == to })
	}
	visit, skip, back := at(TraceVisit, 1, 2), at(TraceSkip, 2, 1), at(TraceBacktrack, 2, 1)
	if visit < 0 || skip < visit || back < skip {
		t.Fatalf("the walk never met the W-only cycle; the scene does not test what it claims: %v", trace)
	}
	if slices.ContainsFunc(trace, func(ev TraceEvent) bool { return ev.Kind == TraceCycle }) {
		t.Fatalf("a cycle was traced that CyclesSearched does not count: %v", trace)
	}
	if res.CyclesSearched != 0 || len(res.Resolutions) != 0 || len(res.Aborted) != 0 || len(res.Repositioned) != 0 {
		t.Fatalf("result = %+v, want nothing proposed", res)
	}
}
