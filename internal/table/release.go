package table

import "hwtwbg/internal/lock"

// Grant results are accumulated in a per-table scratch buffer that is
// reused across calls: the slice returned by Release, Abort and
// ScheduleQueue is valid only until the next Table operation. Every
// caller in the tree consumes the grants immediately (waking waiters
// under the shard mutex, or copying into a Result); a caller that needs
// to retain them across operations must copy. This keeps the contended
// commit/abort hand-off path allocation-free in steady state.

// resetGrants truncates the scratch buffer for a new top-level call.
func (t *Table) resetGrants() {
	t.grantBuf = t.grantBuf[:0]
}

// takeGrants returns the accumulated grants, or nil if there were none
// (callers and tests rely on nil for "nothing granted").
func (t *Table) takeGrants() []Grant {
	if len(t.grantBuf) == 0 {
		return nil
	}
	return t.grantBuf
}

// Release commits txn: every lock it holds is released (strict two-phase
// locking releases everything at once) and each affected resource is
// rescheduled. It returns the requests that became granted as a result,
// in scheduling order; the slice is reused by the next table operation.
// A blocked transaction cannot commit.
func (t *Table) Release(txn TxnID) ([]Grant, error) {
	if txn == None {
		return nil, ErrBadTxn
	}
	st, ok := t.txns[txn]
	if !ok {
		return nil, nil
	}
	if st.waitingOn != nil {
		return nil, ErrCommitWhileBlocked
	}
	t.resetGrants()
	t.removeFromAll(txn, st)
	delete(t.txns, txn)
	t.retireState(st)
	return t.takeGrants(), nil
}

// Abort removes txn from the system entirely: its holder entries (granted
// or blocked in conversion) are deleted and the affected resources
// rescheduled, and its queue entry, if any, is deleted — rescheduling the
// queue when txn was its first member, per Section 3. It returns the
// requests that became granted as a result; the slice is reused by the
// next table operation.
func (t *Table) Abort(txn TxnID) []Grant {
	st, ok := t.txns[txn]
	if !ok || txn == None {
		return nil
	}
	t.resetGrants()
	// Remove a queue entry first (a txn is in at most one queue).
	if st.waitingOn != nil && !st.upgrading {
		r := st.waitingOn
		if i := r.queueIndex(txn); i >= 0 {
			wasHead := i == 0
			r.queue = append(r.queue[:i], r.queue[i+1:]...)
			if wasHead {
				t.grantFromQueue(r)
			}
		}
		st.waitingOn = nil
	}
	t.removeFromAll(txn, st)
	delete(t.txns, txn)
	t.retireState(st)
	return t.takeGrants()
}

// removeFromAll deletes txn's holder entries from every resource it
// touches and reschedules each, appending the resulting grants to the
// scratch buffer. A blocked conversion entry is removed wholesale (abort
// releases the granted mode too).
func (t *Table) removeFromAll(txn TxnID, st *txnState) {
	for _, r := range st.held {
		if i := r.holderIndex(txn); i >= 0 {
			r.holders = append(r.holders[:i], r.holders[i+1:]...)
			t.rescheduleAfterHolderRemoval(r)
		}
	}
	// A blocked upgrader's holder entry lives on st.waitingOn's list but
	// the resource is already in st.held (it held the lock before the
	// conversion), so the loop above covers it.
	st.held = st.held[:0]
	st.waitingOn = nil
}

// rescheduleAfterHolderRemoval implements the first rescheduling case of
// Section 3: a member of the holder list was forced out (commit or
// abort). The total mode is recomputed from scratch; then blocked
// conversions are scanned from the front of the holder list, granting
// until one cannot be granted or a non-blocked entry is reached; finally
// queue members are granted from the front while their blocked mode is
// compatible with the total mode. Grants are appended to the scratch
// buffer.
func (t *Table) rescheduleAfterHolderRemoval(r *Resource) {
	r.recomputeTotal()
	// Grant blocked conversions from the front of the blocked prefix.
	for {
		if len(r.holders) == 0 || r.holders[0].Blocked == lock.NL {
			break
		}
		h := r.holders[0]
		if !r.compatibleWithOthers(h.Txn, h.Blocked) {
			break
		}
		// Grant: substitute bm for gm, clear bm, move the entry to the
		// head of the granted suffix ("put after the blocked holders").
		// Shifting down rather than reslicing keeps the list's capacity.
		r.holders = r.holders[:copy(r.holders, r.holders[1:])]
		granted := HolderEntry{Txn: h.Txn, Granted: h.Blocked}
		r.insertGranted(granted)
		st := t.state(h.Txn)
		st.waitingOn = nil
		st.upgrading = false
		t.grantBuf = append(t.grantBuf, Grant{Txn: h.Txn, Resource: r.id, Mode: granted.Granted})
		// tm already included bm, so it is unchanged by the grant.
	}
	t.grantFromQueue(r)
	if len(r.holders) == 0 && len(r.queue) == 0 {
		delete(t.resources, r.id)
		t.resDirty = true
		t.retireResource(r)
	}
}

// grantFromQueue grants queue members from the front while the first
// waiter's blocked mode is compatible with the total mode, as Section 3
// prescribes for both rescheduling cases, appending the grants to the
// scratch buffer. The granted prefix is shifted out, not resliced away,
// so the queue keeps its capacity: a recycled Resource comes back able
// to queue without allocating.
func (t *Table) grantFromQueue(r *Resource) {
	n := 0
	for ; n < len(r.queue) && lock.Comp(r.queue[n].Blocked, r.total); n++ {
		q := r.queue[n]
		r.insertGranted(HolderEntry{Txn: q.Txn, Granted: q.Blocked})
		r.total = lock.Conv(r.total, q.Blocked)
		st := t.state(q.Txn)
		st.held = append(st.held, r)
		st.waitingOn = nil
		st.upgrading = false
		t.grantBuf = append(t.grantBuf, Grant{Txn: q.Txn, Resource: r.id, Mode: q.Blocked})
	}
	if n > 0 {
		r.queue = r.queue[:copy(r.queue, r.queue[n:])]
	}
	t.deactivate(r)
}

// ScheduleQueue runs the queue-grant process on rid without any removal.
// Step 3 of the periodic algorithm calls this for every resource in the
// change-list after a TDR-2 repositioning. The returned slice is reused
// by the next table operation.
func (t *Table) ScheduleQueue(rid ResourceID) []Grant {
	r := t.resources[rid]
	if r == nil {
		return nil
	}
	t.resetGrants()
	t.grantFromQueue(r)
	return t.takeGrants()
}

// PeekAVST computes, without mutating anything, the AV/ST split of
// TDR-2 (Definition 4.1) on resource rid: among the queue entries from
// the front up to and including transaction j, AV holds those whose
// blocked modes are compatible with the total mode and ST the
// incompatible ones, both in queue order. The entries are appended to
// av and st, which are returned extended (unchanged when rid is not
// locked or j is not queued there), so a caller that brings its own
// buffers allocates nothing. Victim selection uses this to price a
// TDR-2 candidate (cost = sum of ST costs / 2) before deciding.
func (t *Table) PeekAVST(rid ResourceID, j TxnID, av, st []QueueEntry) ([]QueueEntry, []QueueEntry) {
	r := t.resources[rid]
	if r == nil {
		return av, st
	}
	end := r.queueIndex(j)
	if end < 0 {
		return av, st
	}
	for _, q := range r.queue[:end+1] {
		if lock.Comp(q.Blocked, r.total) {
			av = append(av, q)
		} else {
			st = append(st, q)
		}
	}
	return av, st
}

// RepositionAVST performs the queue surgery of TDR-2 (Definition 4.1) on
// resource rid: among the queue entries from the front up to and
// including transaction j, the entries whose blocked modes are compatible
// with the total mode (the set AV) move to the front keeping their
// relative order, followed by the incompatible ones (the set ST), followed
// by the untouched suffix. It appends AV and ST to av and st as PeekAVST
// does and returns them. It does not grant anything; call ScheduleQueue
// afterwards (the algorithm defers that to Step 3 via the change-list).
func (t *Table) RepositionAVST(rid ResourceID, j TxnID, av, st []QueueEntry) ([]QueueEntry, []QueueEntry) {
	a, s := len(av), len(st)
	av, st = t.PeekAVST(rid, j, av, st)
	if r := t.resources[rid]; r != nil {
		copy(r.queue[copy(r.queue, av[a:]):], st[s:])
	}
	return av, st
}
