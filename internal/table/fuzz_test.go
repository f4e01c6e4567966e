package table

import (
	"testing"

	"hwtwbg/internal/lock"
)

// fuzzResources are the resources FuzzTableOps draws from.
var fuzzResources = []ResourceID{"a", "b", "c", "d"}

// Encoders for FuzzTableOps's byte pairs, so the checked-in seeds read
// as the schedules they are. Modes index IS, IX, S, SIX, X.
const (
	fzIS = iota
	fzIX
	fzS
	fzSIX
	fzX
)

func fzRequest(txn, res, mode int) []byte { return []byte{0, byte(txn - 1 | res<<3 | mode<<5)} }
func fzCommit(txn int) []byte             { return []byte{1, byte(txn - 1)} }
func fzAbort(txn int) []byte              { return []byte{2, byte(txn - 1)} }
func fzTDR2(res, queuePos int) []byte     { return []byte{3, byte(res<<3 | queuePos<<5)} }
func fzSchedule(res int) []byte           { return []byte{4, byte(res << 3)} }

func fzSeq(ops ...[]byte) []byte {
	var out []byte
	for _, op := range ops {
		out = append(out, op...)
	}
	return out
}

// FuzzTableOps decodes an arbitrary byte string into a stream of table
// operations and checks that no operation sequence can panic the table
// or break its structural invariants, the maintained active set
// included. Byte pairs decode as (op, argument): request (with
// txn/resource/mode packed into the argument), commit, abort, and the
// detector's two pieces of surgery — a TDR-2 repositioning at a queued
// junction (followed, as in Step 3, by scheduling that queue) and a bare
// ScheduleQueue.
func FuzzTableOps(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x10, 0x23, 0x20, 0x01})
	f.Add([]byte("crossing locks"))
	f.Add([]byte{0x00, 0x3f, 0x00, 0x00, 0x10, 0x3f, 0x20, 0x00})
	// A resource enters the active set, leaves it through each exit, and
	// enters again. Exit: abort of the only waiter.
	f.Add(fzSeq(fzRequest(1, 0, fzX), fzRequest(2, 0, fzX), fzAbort(2), fzRequest(3, 0, fzX)))
	// Exit: a blocked conversion granted by a release; back in by a queue.
	f.Add(fzSeq(fzRequest(1, 0, fzS), fzRequest(2, 0, fzS), fzRequest(1, 0, fzX), fzCommit(2), fzRequest(3, 0, fzS)))
	// Exit: the whole queue granted at once by grantFromQueue.
	f.Add(fzSeq(fzRequest(1, 0, fzX), fzRequest(2, 0, fzS), fzRequest(3, 0, fzS), fzCommit(1), fzRequest(4, 0, fzX)))
	// Exit: drained, then the record itself retired and recycled.
	f.Add(fzSeq(fzRequest(1, 0, fzX), fzRequest(2, 0, fzX), fzAbort(2), fzCommit(1), fzRequest(1, 0, fzX), fzRequest(2, 0, fzX)))
	// The TDR-2 tableau: T3's S is moved ahead of T2's X on a and granted;
	// a keeps T2 queued and stays active, b is scheduled to no effect.
	f.Add(fzSeq(fzRequest(1, 0, fzIS), fzRequest(3, 1, fzX), fzRequest(2, 0, fzX), fzRequest(3, 0, fzS), fzRequest(1, 1, fzS),
		fzTDR2(0, 1), fzSchedule(1), fzAbort(2)))
	// Stamps (invariant 8). A blocked conversion by a transaction holding
	// two more locks is stamped 3, the lock it converts counted once;
	// the release that grants it clears the stamp, while T3, queued
	// behind it holding nothing, keeps its 0.
	f.Add(fzSeq(fzRequest(1, 1, fzS), fzRequest(1, 2, fzIX), fzRequest(1, 0, fzS), fzRequest(2, 0, fzS),
		fzRequest(1, 0, fzX), fzRequest(3, 0, fzIS), fzCommit(2)))
	// A block after a run of grants, as a LockAll round ends: T1 is
	// granted a, b and c, blocks on d stamped 3, is granted d by T2's
	// abort, and blocks again converting a, stamped 4.
	f.Add(fzSeq(fzRequest(2, 3, fzX), fzRequest(1, 0, fzS), fzRequest(1, 1, fzS), fzRequest(1, 2, fzS),
		fzRequest(1, 3, fzX), fzRequest(3, 0, fzS), fzAbort(2), fzRequest(3, 3, fzIS), fzRequest(1, 0, fzX)))
	f.Fuzz(func(t *testing.T, data []byte) {
		tb := New()
		modes := []lock.Mode{lock.IS, lock.IX, lock.S, lock.SIX, lock.X}
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i]%5, data[i+1]
			txn := TxnID(arg&0x07 + 1)
			rid := fuzzResources[(arg>>3)&0x03]
			switch op {
			case 0:
				if tb.Blocked(txn) {
					continue
				}
				m := modes[int(arg>>5)%len(modes)]
				if _, err := tb.Request(txn, rid, m); err != nil {
					t.Fatalf("Request(%v,%s,%v): %v", txn, rid, m, err)
				}
			case 1:
				if tb.Blocked(txn) {
					continue
				}
				if _, err := tb.Release(txn); err != nil {
					t.Fatalf("Release(%v): %v", txn, err)
				}
			case 2:
				tb.Abort(txn)
			case 3:
				r := tb.Resource(rid)
				if r == nil || r.QueueLen() == 0 {
					continue
				}
				j := r.QueueAt(int(arg>>5) % r.QueueLen())
				if !lock.Comp(j.Blocked, r.TotalMode()) {
					continue // not a TDR-2 junction (Definition 4.1)
				}
				tb.RepositionAVST(rid, j.Txn, nil, nil)
				// Between Step 2 and Step 3 the queue head is grantable by
				// design; the active set must already be right.
				if err := tb.validateActive(); err != nil {
					t.Fatalf("after RepositionAVST(%s,%v): %v", rid, j.Txn, err)
				}
				tb.ScheduleQueue(rid)
			default:
				tb.ScheduleQueue(rid)
			}
			fuzzCheckInvariants(t, tb)
		}
	})
}

// fuzzCheckInvariants is a trimmed copy of the invariant checker used
// by the random-workload test, kept separate so fuzzing stays fast.
func fuzzCheckInvariants(t *testing.T, tb *Table) {
	for _, r := range tb.Resources() {
		want := lock.NL
		granted := false
		for _, h := range r.Holders() {
			want = lock.Join(want, h.Granted, h.Blocked)
			if h.Blocked == lock.NL {
				granted = true
			} else if granted {
				t.Fatalf("%s: blocked upgrader after granted holder", r.ID())
			}
		}
		if r.TotalMode() != want {
			t.Fatalf("%s: tm=%v fold=%v", r.ID(), r.TotalMode(), want)
		}
		if q := r.Queue(); len(q) > 0 && lock.Comp(q[0].Blocked, r.TotalMode()) {
			t.Fatalf("%s: grantable queue head %v stranded", r.ID(), q[0])
		}
		if err := tb.validateStamps(r); err != nil {
			t.Fatal(err)
		}
	}
	// A lone table has no locks elsewhere to count: every stamp is
	// exactly the waiter's count here.
	for _, id := range tb.Txns() {
		if tb.Blocked(id) && tb.WaitHeld(id) != tb.HeldCount(id) {
			t.Fatalf("%v's wait stamped %d, holds %d", id, tb.WaitHeld(id), tb.HeldCount(id))
		}
	}
	if err := tb.validateActive(); err != nil {
		t.Fatal(err)
	}
}
