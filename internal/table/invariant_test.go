package table

import (
	"fmt"
	"math/rand"
	"testing"

	"hwtwbg/internal/lock"
)

// checkInvariants asserts every structural invariant the scheduling
// policy of Section 3 guarantees at quiescence (between operations).
func checkInvariants(t *testing.T, tb *Table) {
	t.Helper()
	waiters := make(map[TxnID]ResourceID)
	for _, r := range tb.Resources() {
		// 1. The blocked upgraders form a prefix of the holder list.
		seenGranted := false
		for _, h := range r.Holders() {
			if h.Blocked == lock.NL {
				seenGranted = true
			} else if seenGranted {
				t.Fatalf("%s: blocked upgrader %v after a granted holder", r.ID(), h)
			}
		}
		// 2. tm is exactly the conversion-fold of gm and bm over holders.
		want := lock.NL
		for _, h := range r.Holders() {
			want = lock.Join(want, h.Granted, h.Blocked)
		}
		if r.TotalMode() != want {
			t.Fatalf("%s: tm = %v, fold = %v\n%s", r.ID(), r.TotalMode(), want, r)
		}
		// 3. Granted modes are pairwise compatible.
		hs := r.Holders()
		for i := range hs {
			for j := i + 1; j < len(hs); j++ {
				if !lock.Comp(hs[i].Granted, hs[j].Granted) {
					t.Fatalf("%s: incompatible granted modes %v vs %v", r.ID(), hs[i], hs[j])
				}
			}
		}
		// 4. No blocked upgrader is grantable at quiescence
		//    (Theorem 3.1: rescheduling never strands a grantable one).
		for _, h := range hs {
			if h.Blocked == lock.NL {
				continue
			}
			grantable := true
			for _, o := range hs {
				if o.Txn != h.Txn && !lock.Comp(h.Blocked, o.Granted) {
					grantable = false
					break
				}
			}
			if grantable {
				t.Fatalf("%s: blocked upgrader %v is grantable but stranded\n%s", r.ID(), h, r)
			}
		}
		// 5. The queue head is incompatible with tm at quiescence.
		if q := r.Queue(); len(q) > 0 && lock.Comp(q[0].Blocked, r.TotalMode()) {
			t.Fatalf("%s: queue head %v compatible with tm %v but not granted", r.ID(), q[0], r.TotalMode())
		}
		// 6. Axiom 1: no transaction appears twice across all queues, and
		//    wait bookkeeping matches the physical structures.
		for i, q := range r.Queue() {
			if prev, dup := waiters[q.Txn]; dup {
				t.Fatalf("%v queued at both %s and %s", q.Txn, prev, r.ID())
			}
			waiters[q.Txn] = r.ID()
			if rid, m, ok := tb.WaitingOn(q.Txn); !ok || rid != r.ID() || m != q.Blocked {
				t.Fatalf("WaitingOn(%v) = %v,%v,%v; queued at %s pos %d", q.Txn, rid, m, ok, r.ID(), i)
			}
			if _, holds := r.Holder(q.Txn); holds {
				t.Fatalf("%v both holds and queues at %s", q.Txn, r.ID())
			}
		}
		for _, h := range r.Holders() {
			if h.Blocked != lock.NL {
				if prev, dup := waiters[h.Txn]; dup {
					t.Fatalf("%v waits at both %s and %s", h.Txn, prev, r.ID())
				}
				waiters[h.Txn] = r.ID()
				if rid, m, ok := tb.WaitingOn(h.Txn); !ok || rid != r.ID() || m != h.Blocked {
					t.Fatalf("WaitingOn(%v) = %v,%v,%v; upgrading at %s", h.Txn, rid, m, ok, r.ID())
				}
				if !tb.Upgrading(h.Txn) {
					t.Fatalf("%v blocked in holder list but not Upgrading", h.Txn)
				}
			}
		}
	}
	// 7. Every transaction the table believes is blocked really appears
	//    in some queue or blocked prefix.
	for _, txn := range tb.Txns() {
		if tb.Blocked(txn) {
			if _, ok := waiters[txn]; !ok {
				t.Fatalf("%v marked blocked but not found in any structure", txn)
			}
		}
	}
	// 8. The maintained active set is exactly the contended resources.
	if err := tb.validateActive(); err != nil {
		t.Fatal(err)
	}
}

// TestRandomWorkloadInvariants drives the table with a long random
// operation stream (requests, conversions, commits, aborts) and checks
// all invariants after every operation (experiment E12's property side).
func TestRandomWorkloadInvariants(t *testing.T) {
	modes := []lock.Mode{lock.IS, lock.IX, lock.S, lock.SIX, lock.X}
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			tb := New()
			const nTxn, nRes = 12, 6
			for step := 0; step < 4000; step++ {
				txn := TxnID(1 + rng.Intn(nTxn))
				switch op := rng.Intn(10); {
				case op < 7: // request
					if tb.Blocked(txn) {
						break
					}
					rid := ResourceID(fmt.Sprintf("R%d", 1+rng.Intn(nRes)))
					m := modes[rng.Intn(len(modes))]
					if _, err := tb.Request(txn, rid, m); err != nil {
						t.Fatalf("step %d: Request(%v,%s,%v): %v", step, txn, rid, m, err)
					}
				case op < 9: // commit
					if tb.Blocked(txn) {
						break
					}
					if _, err := tb.Release(txn); err != nil {
						t.Fatalf("step %d: Release(%v): %v", step, txn, err)
					}
				default: // abort (allowed even while blocked)
					tb.Abort(txn)
				}
				checkInvariants(t, tb)
			}
		})
	}
}

// TestRandomAbortAllUnblocks aborts every transaction and verifies the
// table drains completely regardless of the tangle it was in.
func TestRandomAbortAllUnblocks(t *testing.T) {
	modes := []lock.Mode{lock.IS, lock.IX, lock.S, lock.SIX, lock.X}
	rng := rand.New(rand.NewSource(7))
	tb := New()
	for step := 0; step < 2000; step++ {
		txn := TxnID(1 + rng.Intn(20))
		if tb.Blocked(txn) {
			continue
		}
		rid := ResourceID(fmt.Sprintf("R%d", 1+rng.Intn(8)))
		if _, err := tb.Request(txn, rid, modes[rng.Intn(len(modes))]); err != nil {
			t.Fatal(err)
		}
	}
	for txn := TxnID(1); txn <= 20; txn++ {
		tb.Abort(txn)
		checkInvariants(t, tb)
	}
	if len(tb.Resources()) != 0 {
		t.Fatalf("resources remain after aborting everyone:\n%s", tb)
	}
	if len(tb.Txns()) != 0 {
		t.Fatalf("transactions remain: %v", tb.Txns())
	}
}

func BenchmarkRequestGrant(b *testing.B) {
	tb := New()
	for i := 0; i < b.N; i++ {
		txn := TxnID(i%1000 + 1)
		if _, err := tb.Request(txn, "hot", lock.IS); err != nil {
			b.Fatal(err)
		}
		if i%1000 == 999 {
			for j := 1; j <= 1000; j++ {
				tb.Abort(TxnID(j))
			}
		}
	}
}

func BenchmarkRequestConflictAndAbort(b *testing.B) {
	tb := New()
	for i := 0; i < b.N; i++ {
		a, c := TxnID(2*i+1), TxnID(2*i+2)
		if _, err := tb.Request(a, "hot", lock.X); err != nil {
			b.Fatal(err)
		}
		if _, err := tb.Request(c, "hot", lock.X); err != nil {
			b.Fatal(err)
		}
		tb.Abort(a) // grants c
		tb.Abort(c)
	}
}
