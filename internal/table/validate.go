package table

import (
	"fmt"

	"hwtwbg/internal/lock"
)

// Validate checks every structural invariant the scheduling policy
// guarantees at quiescence and returns the first violation found, or
// nil. It exists as a debugging and testing aid: the invariants are
// maintained by construction, and the property-test suite calls
// Validate after every operation of long random workloads.
//
// The invariants:
//
//  1. blocked upgraders form a prefix of every holder list;
//  2. the total mode equals the conversion-fold of every holder's
//     granted and blocked modes;
//  3. granted modes are pairwise compatible;
//  4. no blocked upgrader is grantable (Theorem 3.1: rescheduling never
//     strands one);
//  5. the queue head is incompatible with the total mode;
//  6. no transaction waits in two places (Axiom 1), and the per-
//     transaction wait bookkeeping matches the physical structures;
//  7. the maintained active set is exactly the resources with a queued
//     waiter or a blocked conversion, and every back-index points at its
//     own slot;
//  8. every wait's stamp is at least the number of locks its transaction
//     holds in this table, and a granted holder entry carries none.
func (t *Table) Validate() error {
	waiters := make(map[TxnID]ResourceID)
	for _, r := range t.Resources() {
		if err := t.validateResource(r, waiters); err != nil {
			return err
		}
	}
	for id, st := range t.txns {
		if st.waitingOn == nil {
			continue
		}
		if _, ok := waiters[id]; !ok {
			return fmt.Errorf("table: %v marked blocked but present in no structure", id)
		}
	}
	return t.validateActive()
}

// validateActive checks invariant 7. Membership must match the
// predicate, and every member must sit in the slot its back-index
// names; members then occupy distinct slots, so equal counts leave the
// set no room for strays.
func (t *Table) validateActive() error {
	members := 0
	for _, r := range t.resources {
		in, want := r.activeIdx != 0, len(r.queue) > 0 || r.blockedLen() > 0
		if in != want {
			return fmt.Errorf("table: %s: in active set = %v, but has waiters = %v", r.id, in, want)
		}
		if in {
			if r.activeIdx > len(t.active) || t.active[r.activeIdx-1] != r {
				return fmt.Errorf("table: %s: back-index %d does not point at its active-set slot", r.id, r.activeIdx)
			}
			members++
		}
	}
	if members != len(t.active) {
		return fmt.Errorf("table: active set holds %d entries, %d resources are members", len(t.active), members)
	}
	return nil
}

func (t *Table) validateResource(r *Resource, waiters map[TxnID]ResourceID) error {
	// 1. Blocked prefix.
	seenGranted := false
	for _, h := range r.holders {
		if h.Blocked == lock.NL {
			seenGranted = true
		} else if seenGranted {
			return fmt.Errorf("table: %s: blocked upgrader %v after a granted holder", r.id, h)
		}
	}
	// 2. Total mode.
	want := lock.NL
	for _, h := range r.holders {
		want = lock.Join(want, h.Granted, h.Blocked)
	}
	if r.total != want {
		return fmt.Errorf("table: %s: tm=%v but fold=%v", r.id, r.total, want)
	}
	// 3. Pairwise-compatible granted modes.
	for i := range r.holders {
		for j := i + 1; j < len(r.holders); j++ {
			if !lock.Comp(r.holders[i].Granted, r.holders[j].Granted) {
				return fmt.Errorf("table: %s: incompatible granted modes %v vs %v",
					r.id, r.holders[i], r.holders[j])
			}
		}
	}
	// 4. No stranded grantable upgrader.
	for _, h := range r.holders {
		if h.Blocked == lock.NL {
			continue
		}
		grantable := true
		for _, o := range r.holders {
			if o.Txn != h.Txn && !lock.Comp(h.Blocked, o.Granted) {
				grantable = false
				break
			}
		}
		if grantable {
			return fmt.Errorf("table: %s: blocked upgrader %v is grantable but stranded", r.id, h)
		}
	}
	// 5. Queue head incompatible with tm.
	if len(r.queue) > 0 && lock.Comp(r.queue[0].Blocked, r.total) {
		return fmt.Errorf("table: %s: queue head %v compatible with tm %v but not granted",
			r.id, r.queue[0], r.total)
	}
	// 6. Wait bookkeeping and Axiom 1.
	for _, q := range r.queue {
		if prev, dup := waiters[q.Txn]; dup {
			return fmt.Errorf("table: %v queued at both %s and %s", q.Txn, prev, r.id)
		}
		waiters[q.Txn] = r.id
		st := t.txns[q.Txn]
		if st == nil || st.waitingOn != r || st.waitMode != q.Blocked || st.upgrading {
			return fmt.Errorf("table: %v's wait bookkeeping inconsistent with queue of %s", q.Txn, r.id)
		}
		if _, holds := r.Holder(q.Txn); holds {
			return fmt.Errorf("table: %v both holds and queues at %s", q.Txn, r.id)
		}
	}
	for _, h := range r.holders {
		if h.Blocked == lock.NL {
			continue
		}
		if prev, dup := waiters[h.Txn]; dup {
			return fmt.Errorf("table: %v waits at both %s and %s", h.Txn, prev, r.id)
		}
		waiters[h.Txn] = r.id
		st := t.txns[h.Txn]
		if st == nil || st.waitingOn != r || st.waitMode != h.Blocked || !st.upgrading {
			return fmt.Errorf("table: %v's wait bookkeeping inconsistent with holder list of %s", h.Txn, r.id)
		}
	}
	return t.validateStamps(r)
}

// validateStamps checks invariant 8 on r.
func (t *Table) validateStamps(r *Resource) error {
	check := func(txn TxnID, held int32) error {
		st := t.txns[txn]
		if st == nil {
			return fmt.Errorf("table: %s: waiter %v has no transaction state", r.id, txn)
		}
		if n := len(st.held); int(held) < n {
			return fmt.Errorf("table: %s: %v's wait is stamped %d, but it holds %d locks here", r.id, txn, held, n)
		}
		return nil
	}
	for _, h := range r.holders {
		if h.Blocked == lock.NL {
			if h.Held != 0 {
				return fmt.Errorf("table: %s: granted holder %v carries stamp %d", r.id, h, h.Held)
			}
			continue
		}
		if err := check(h.Txn, h.Held); err != nil {
			return err
		}
	}
	for _, q := range r.queue {
		if err := check(q.Txn, q.Held); err != nil {
			return err
		}
	}
	return nil
}
