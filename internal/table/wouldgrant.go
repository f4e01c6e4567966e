package table

import "hwtwbg/internal/lock"

// WouldGrant predicts, without mutating anything, whether Request(txn,
// rid, m) would be granted immediately: it asks the grant test Request
// itself decides by (Resource.grants). A request the table would refuse
// with an error (blocked requestor, bad mode, null txn) reports false.
// TryLock is built on this prediction; the crosscheck test in
// wouldgrant_test.go verifies it against actual Request outcomes over
// randomized tables.
func (t *Table) WouldGrant(txn TxnID, rid ResourceID, m lock.Mode) bool {
	if txn == None || !m.Valid() || m == lock.NL {
		return false
	}
	if st, ok := t.txns[txn]; ok && st.waitingOn != nil {
		return false
	}
	r := t.resources[rid]
	if r == nil {
		return true
	}
	_, ok := r.grants(r.holderIndex(txn), m)
	return ok
}

// HeldCount returns the number of resources on which txn has a holder
// entry, without allocating. The manager's default victim-cost metric
// (locks held + 1) calls this once per candidate during detection.
func (t *Table) HeldCount(txn TxnID) int {
	st, ok := t.txns[txn]
	if !ok {
		return 0
	}
	return len(st.held)
}

// WaitHeld returns the stamp of txn's wait (HolderEntry.Held), or 0 when
// txn does not wait.
func (t *Table) WaitHeld(txn TxnID) int {
	st, ok := t.txns[txn]
	if !ok || st.waitingOn == nil {
		return 0
	}
	r := st.waitingOn
	if st.upgrading {
		return int(r.holders[r.holderIndex(txn)].Held)
	}
	return int(r.queue[r.queueIndex(txn)].Held)
}
