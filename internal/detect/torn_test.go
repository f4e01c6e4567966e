package detect

import (
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
