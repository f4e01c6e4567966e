package table

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hwtwbg/internal/lock"
)

// TestValidateCleanStates: Validate passes after every operation of a
// random workload (it encodes the same invariants the test-local
// checker asserts; the two are kept deliberately redundant).
func TestValidateCleanStates(t *testing.T) {
	modes := []lock.Mode{lock.IS, lock.IX, lock.S, lock.SIX, lock.X}
	rng := rand.New(rand.NewSource(11))
	tb := New()
	for step := 0; step < 3000; step++ {
		txn := TxnID(1 + rng.Intn(10))
		switch op := rng.Intn(10); {
		case op < 7:
			if tb.Blocked(txn) {
				continue
			}
			rid := ResourceID(fmt.Sprintf("R%d", 1+rng.Intn(5)))
			if _, err := tb.Request(txn, rid, modes[rng.Intn(len(modes))]); err != nil {
				t.Fatal(err)
			}
		case op < 9:
			if tb.Blocked(txn) {
				continue
			}
			if _, err := tb.Release(txn); err != nil {
				t.Fatal(err)
			}
		default:
			tb.Abort(txn)
		}
		if err := tb.Validate(); err != nil {
			t.Fatalf("step %d: %v\n%s", step, err, tb)
		}
	}
}

// TestValidateDetectsCorruption: hand-corrupt each invariant and check
// Validate names it.
func TestValidateDetectsCorruption(t *testing.T) {
	build := func() (*Table, *Resource) {
		tb := New()
		tb.Request(1, "R", lock.IS)
		tb.Request(2, "R", lock.IX)
		tb.Request(1, "R", lock.S) // blocked upgrade
		tb.Request(3, "R", lock.X) // queued
		return tb, tb.Resource("R")
	}

	tb, r := build()
	r.holders[0], r.holders[1] = r.holders[1], r.holders[0] // granted before blocked
	if err := tb.Validate(); err == nil || !strings.Contains(err.Error(), "after a granted holder") {
		t.Fatalf("err = %v", err)
	}

	tb, r = build()
	r.total = lock.IS
	if err := tb.Validate(); err == nil || !strings.Contains(err.Error(), "fold") {
		t.Fatalf("err = %v", err)
	}

	tb, r = build()
	r.holders[1].Granted = lock.X // incompatible with upgrader's IS? IS-X conflict
	r.recomputeTotal()
	if err := tb.Validate(); err == nil {
		t.Fatal("corrupted granted modes not detected")
	}

	tb, r = build()
	r.holders[0].Blocked = lock.IS // trivially grantable upgrade left in place
	r.recomputeTotal()
	if err := tb.Validate(); err == nil || !strings.Contains(err.Error(), "stranded") {
		t.Fatalf("err = %v", err)
	}

	tb, r = build()
	r.queue[0].Blocked = lock.IS // head compatible with tm
	st := tb.txns[3]
	st.waitMode = lock.IS
	if err := tb.Validate(); err == nil || !strings.Contains(err.Error(), "queue head") {
		t.Fatalf("err = %v", err)
	}

	tb, r = build()
	r.queue = append(r.queue, QueueEntry{Txn: 1, Blocked: lock.X}) // T1 waits twice
	if err := tb.Validate(); err == nil {
		t.Fatal("double wait not detected")
	}

	tb, r = build()
	tb.txns[3].waitMode = lock.S // bookkeeping mismatch
	if err := tb.Validate(); err == nil || !strings.Contains(err.Error(), "inconsistent") {
		t.Fatalf("err = %v", err)
	}

	tb, _ = build()
	tb.txns[9] = &txnState{waitingOn: tb.Resource("R")} // phantom waiter
	if err := tb.Validate(); err == nil || !strings.Contains(err.Error(), "no structure") {
		t.Fatalf("err = %v", err)
	}

	// 7: the active set. R has a queue and a blocked upgrade, so it is a
	// member; Q is held and uncontended, so it is not.
	tb, r = build()
	r.activeIdx = 0 // contended resource dropped out
	if err := tb.Validate(); err == nil || !strings.Contains(err.Error(), "in active set = false") {
		t.Fatalf("err = %v", err)
	}

	tb, _ = build()
	tb.Request(2, "Q", lock.S)
	q := tb.Resource("Q")
	tb.active = append(tb.active, q) // uncontended resource slipped in
	q.activeIdx = len(tb.active)
	if err := tb.Validate(); err == nil || !strings.Contains(err.Error(), "in active set = true") {
		t.Fatalf("err = %v", err)
	}

	tb, r = build()
	tb.active = append(tb.active, r) // listed twice
	if err := tb.Validate(); err == nil || !strings.Contains(err.Error(), "active set holds 2 entries") {
		t.Fatalf("err = %v", err)
	}

	tb, r = build()
	tb.Request(2, "Q", lock.S)
	tb.active[0] = tb.Resource("Q") // slot overwritten: back-index dangles
	if err := tb.Validate(); err == nil || !strings.Contains(err.Error(), "back-index") {
		t.Fatalf("err = %v", err)
	}

	// 8: stamps. T1's conversion is stamped 1 (R) and T3's queue entry
	// 0. A stamp may count locks held in other tables, never fewer than
	// the ones held here.
	tb, r = build()
	r.holders[0].Held = 2 // T1 holds another lock elsewhere
	if err := tb.Validate(); err != nil {
		t.Fatalf("stamp counting a lock in another table: %v", err)
	}
	r.holders[0].Held = 0 // converter priced below the lock it converts
	if err := tb.Validate(); err == nil || !strings.Contains(err.Error(), "stamped 0") {
		t.Fatalf("err = %v", err)
	}

	tb, r = build()
	r.holders[1].Held = 1 // stamp left on a granted entry
	if err := tb.Validate(); err == nil || !strings.Contains(err.Error(), "carries stamp") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateEmpty(t *testing.T) {
	if err := New().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestActiveSetEnterLeave walks resource a into the active set, out
// through each of its exits, and in again, checking the set after every
// step: the first enqueue or blocked conversion enters it, and it
// leaves when its queue and blocked prefix have drained — by the abort
// of its only waiter, by a release that grants a blocked conversion, by
// grantFromQueue emptying the queue, by the record being retired and
// recycled — and at no other time.
func TestActiveSetEnterLeave(t *testing.T) {
	type step struct {
		do     func(*Table)
		active bool
	}
	req := func(txn TxnID, m lock.Mode) func(*Table) {
		return func(tb *Table) { tb.Request(txn, "a", m) }
	}
	commit := func(txn TxnID) func(*Table) { return func(tb *Table) { tb.Release(txn) } }
	abort := func(txn TxnID) func(*Table) { return func(tb *Table) { tb.Abort(txn) } }
	for name, steps := range map[string][]step{
		"abort of the only waiter": {
			{req(1, lock.X), false}, {req(2, lock.X), true}, {abort(2), false}, {req(3, lock.X), true},
		},
		"abort of a waiter behind another": {
			{req(1, lock.X), false}, {req(2, lock.X), true}, {req(3, lock.X), true}, {abort(3), true}, {abort(2), false},
		},
		"conversion granted by a release": {
			{req(1, lock.S), false}, {req(2, lock.S), false}, {req(1, lock.X), true}, {commit(2), false}, {req(3, lock.S), true},
		},
		"queue drained by grantFromQueue": {
			{req(1, lock.X), false}, {req(2, lock.S), true}, {req(3, lock.S), true}, {commit(1), false}, {req(4, lock.X), true},
		},
		"hand-off that leaves a queue": {
			{req(1, lock.X), false}, {req(2, lock.X), true}, {req(3, lock.X), true}, {commit(1), true}, {commit(2), false},
		},
		"resource retired and recycled": {
			{req(1, lock.X), false}, {req(2, lock.X), true}, {abort(2), false}, {commit(1), false},
			{req(1, lock.X), false}, {req(2, lock.X), true},
		},
		"reposition and schedule": {
			{req(1, lock.IS), false}, {req(2, lock.X), true}, {req(3, lock.S), true},
			{func(tb *Table) { tb.RepositionAVST("a", 3, nil, nil) }, true},
			{func(tb *Table) { tb.ScheduleQueue("a") }, true}, // T3 granted, T2 still queued
			{abort(2), false},
		},
	} {
		tb := New()
		tb.Request(9, "other", lock.X) // a bystander that never enters
		for i, s := range steps {
			s.do(tb)
			got := len(tb.active) == 1 && tb.active[0].id == "a"
			if got != s.active || (!got && len(tb.active) != 0) {
				t.Errorf("%s, step %d: a active = %v (set size %d), want %v", name, i, got, len(tb.active), s.active)
			}
			if err := tb.validateActive(); err != nil {
				t.Errorf("%s, step %d: %v", name, i, err)
			}
		}
	}
}
