package table

import "hwtwbg/internal/lock"

// Request asks the table to grant txn a lock of mode m on resource rid,
// implementing the scheduling policy of Section 3 of the paper:
//
//   - If txn already holds rid the request is a lock conversion: the new
//     mode Conv(gm, m) is granted immediately when it is compatible with
//     the granted mode of every other holder; otherwise txn blocks inside
//     the holder list and is repositioned by the UPR.
//   - Otherwise txn is a new requestor: it is granted immediately only
//     when the queue is empty and m is compatible with the total mode;
//     otherwise it is appended to the FIFO queue.
//
// Request reports whether the lock was granted. When granted is false the
// transaction is blocked and must not issue further requests until it is
// granted (by a later Release/Abort/ScheduleQueue) or aborted; violating
// this returns ErrBlocked.
//
// A blocked request is stamped with the number of locks txn holds in
// this table, which prices it as a victim (HolderEntry.Held).
func (t *Table) Request(txn TxnID, rid ResourceID, m lock.Mode) (granted bool, err error) {
	res, err := t.RequestEx(txn, rid, m)
	return res.Granted, err
}

// RequestResult reports what a RequestEx did, for instrumentation: the
// grant outcome, whether the request was a lock conversion by an
// existing holder, and — when the request blocked — how many requests
// sat in front of it (the queue length for a fresh requestor, the
// blocked-upgrader prefix length for a blocked conversion, counting the
// newcomer itself).
type RequestResult struct {
	Granted    bool
	Conversion bool
	QueueDepth int
}

// RequestEx is Request with an instrumentation-grade result, for
// callers that keep per-request counters (conversions vs fresh
// requests, queue depth at enqueue) without a second table probe.
//
//hwlint:hotpath allocs=1
func (t *Table) RequestEx(txn TxnID, rid ResourceID, m lock.Mode) (RequestResult, error) {
	return t.RequestHeld(txn, rid, m, 0)
}

// RequestHeld is RequestEx with a caller-supplied stamp, for a table
// that is one of several a transaction spreads its locks over: held is
// the number of locks txn holds across all of them. If the request
// blocks, the wait's entry is stamped with the larger of held and txn's
// HeldCount here (HolderEntry.Held), so a snapshot that copies the
// entry can price the waiter without counting its locks. The core
// manager issues every request through here.
//
// The budget is the uncontended-path gate (1 alloc/op in the root
// package's TestAllocationPins): the one countable site is the Resource
// record minted on a freelist miss; everything else rides on recycled
// capacity (freelists, per-record slice reuse, map writes amortized by
// Go's runtime).
//
//hwlint:hotpath allocs=1
func (t *Table) RequestHeld(txn TxnID, rid ResourceID, m lock.Mode, held int) (RequestResult, error) {
	if txn == None {
		return RequestResult{}, ErrBadTxn
	}
	if !m.Valid() || m == lock.NL {
		return RequestResult{}, ErrBadMode
	}
	st := t.state(txn)
	if st.waitingOn != nil {
		return RequestResult{}, ErrBlocked
	}
	r := t.resources[rid]
	if r == nil {
		if n := len(t.resFree); n > 0 {
			r = t.resFree[n-1]
			t.resFree = t.resFree[:n-1]
			r.id = rid
		} else {
			r = &Resource{id: rid, total: lock.NL}
		}
		t.resources[rid] = r
		t.resDirty = true
	}

	if i := r.holderIndex(txn); i >= 0 {
		res := RequestResult{Conversion: true, Granted: t.convert(st, r, i, m, held)}
		if !res.Granted {
			res.QueueDepth = r.blockedLen()
		}
		return res, nil
	}
	res := RequestResult{Granted: t.newRequest(st, r, txn, m, held)}
	if !res.Granted {
		res.QueueDepth = len(r.queue)
	}
	return res, nil
}

// stamp returns the stamp for a wait st is about to begin: RequestHeld's
// held, but never less than the locks st holds in this table.
func stamp(st *txnState, held int) int32 {
	return int32(max(held, len(st.held)))
}

// convert handles a re-request by an existing holder (a lock conversion).
func (t *Table) convert(st *txnState, r *Resource, i int, m lock.Mode, held int) bool {
	h := &r.holders[i]
	newMode, ok := r.grants(i, m)
	if ok {
		if newMode != h.Granted { // else the held mode already covers the request
			h.Granted = newMode
			r.total = lock.Conv(r.total, m)
		}
		return true
	}
	// Block the conversion: record bm, fold the request into tm, and
	// reposition the entry among the blocked upgraders per the UPR.
	entry := *h
	entry.Blocked = newMode
	entry.Held = stamp(st, held)
	r.total = lock.Conv(r.total, m)
	r.holders = append(r.holders[:i], r.holders[i+1:]...)
	if t.DisableUPR {
		r.insertAfterBlocked(entry)
	} else {
		r.insertUpgrader(entry)
	}
	t.activate(r)
	st.waitingOn = r
	st.waitMode = newMode
	st.upgrading = true
	return false
}

// newRequest handles a request by a transaction that holds nothing on r.
func (t *Table) newRequest(st *txnState, r *Resource, txn TxnID, m lock.Mode, held int) bool {
	if _, ok := r.grants(-1, m); ok {
		// Immediate grants of new requestors keep arrival order at the
		// end of the holder list (the paper's initial example states).
		r.holders = append(r.holders, HolderEntry{Txn: txn, Granted: m})
		r.total = lock.Conv(r.total, m)
		st.held = append(st.held, r)
		return true
	}
	r.queue = append(r.queue, QueueEntry{Txn: txn, Blocked: m, Held: stamp(st, held)})
	t.activate(r)
	st.waitingOn = r
	st.waitMode = m
	st.upgrading = false
	return false
}

// grants is the grant test of Section 3's scheduling policy for a
// request of mode m on r, by the holder at index i (a conversion) or,
// with i < 0, by a transaction holding nothing on r (a new requestor):
//
//   - a conversion is granted when the combined mode Conv(gm, m) equals
//     the current gm, or is compatible with every other holder's gm;
//   - a new requestor is granted when the queue is empty and m is
//     compatible with the total mode.
//
// It returns the mode the requestor would then hold.
func (r *Resource) grants(i int, m lock.Mode) (lock.Mode, bool) {
	if i < 0 {
		return m, len(r.queue) == 0 && lock.Comp(m, r.total)
	}
	h := r.holders[i]
	newMode := lock.Conv(h.Granted, m)
	return newMode, newMode == h.Granted || r.compatibleWithOthers(h.Txn, newMode)
}

// compatibleWithOthers reports whether mode m is compatible with the
// granted mode of every holder of r other than txn (the grant test for
// conversions, Section 3).
func (r *Resource) compatibleWithOthers(txn TxnID, m lock.Mode) bool {
	for _, h := range r.holders {
		if h.Txn != txn && !lock.Comp(m, h.Granted) {
			return false
		}
	}
	return true
}

// insertUpgrader places a freshly blocked conversion entry into the
// blocked prefix of the holder list according to the Upgrader Positioning
// Rule of Section 3:
//
//	UPR-1: before the first blocked entry whose bm is compatible with
//	       the newcomer's bm;
//	UPR-2: otherwise, before the first blocked entry whose gm is
//	       compatible with the newcomer's bm and whose bm is not
//	       compatible with the newcomer's gm;
//	UPR-3: otherwise, after every blocked entry (and before every
//	       granted one).
func (r *Resource) insertUpgrader(e HolderEntry) {
	n := r.blockedLen()
	pos := n // UPR-3 default: end of the blocked prefix
	// UPR-1.
	for i := 0; i < n; i++ {
		if lock.Comp(r.holders[i].Blocked, e.Blocked) {
			pos = i
			goto place
		}
	}
	// UPR-2.
	for i := 0; i < n; i++ {
		if lock.Comp(r.holders[i].Granted, e.Blocked) && !lock.Comp(r.holders[i].Blocked, e.Granted) {
			pos = i
			goto place
		}
	}
place:
	r.holders = append(r.holders, HolderEntry{})
	copy(r.holders[pos+1:], r.holders[pos:])
	r.holders[pos] = e
}

// insertAfterBlocked appends a blocked entry at the end of the blocked
// prefix regardless of compatibility — arrival order, the UPR ablation.
func (r *Resource) insertAfterBlocked(e HolderEntry) {
	pos := r.blockedLen()
	r.holders = append(r.holders, HolderEntry{})
	copy(r.holders[pos+1:], r.holders[pos:])
	r.holders[pos] = e
}

// insertGranted places a re-granted (bm == NL) entry at the head of the
// granted suffix, i.e. immediately after the blocked upgraders ("all the
// newly granted ones are put after the blocked holders", Section 3). This
// matches the holder orders the paper prints after rescheduling in
// Examples 4.1 (modified situation) and 5.1.
func (r *Resource) insertGranted(e HolderEntry) {
	pos := r.blockedLen()
	r.holders = append(r.holders, HolderEntry{})
	copy(r.holders[pos+1:], r.holders[pos:])
	r.holders[pos] = e
}
