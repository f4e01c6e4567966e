// Package table implements the lock table and the scheduling policy of
// Section 3 of the paper: strict two-phase locking with the five MGL lock
// modes, first-in-first-out queues, lock conversions, the incrementally
// maintained total mode, and the Upgrader Positioning Rule (UPR).
//
// The table is the sequential core of the system: one logical operation at
// a time, no internal locking. Concurrency is layered on top by the public
// hwtwbg package; deadlock detection is layered on top by internal/detect,
// which reads and mutates the table through the methods defined here.
//
// Terminology follows the paper: each locked resource has a holder list
// (entries carry a granted mode gm and a blocked mode bm, bm != NL meaning
// the holder is blocked in a lock conversion), a queue of blocked new
// requestors, and a total mode tm = Conv(gm1, bm1, gm2, bm2, ...) folded
// over every holder entry.
package table

import (
	"errors"
	"fmt"
	"sort"

	"hwtwbg/internal/lock"
)

// TxnID identifies a transaction. The paper assigns integer identifiers
// 1..N; 0 is reserved as "no transaction".
type TxnID int

// None is the null transaction id.
const None TxnID = 0

// String prints the paper's Ti notation.
func (t TxnID) String() string { return fmt.Sprintf("T%d", int(t)) }

// ResourceID identifies a lockable resource (the paper's rid).
type ResourceID string

// HolderEntry is one member of a resource's holder list: (tid, gm, bm) in
// the paper's notation. Blocked == lock.NL means the holder is not blocked;
// otherwise the holder has requested a conversion to Blocked and waits.
type HolderEntry struct {
	Txn     TxnID
	Granted lock.Mode // gm: the mode currently held
	Blocked lock.Mode // bm: the conversion target, or NL
	// Held is a blocked conversion's stamp: how many locks Txn held, in
	// every table, when the conversion blocked (RequestHeld's held). A
	// waiting transaction can neither gain nor lose a lock, so the stamp
	// stays true for as long as the wait does. Zero once granted.
	Held int32
}

// String prints the paper's "(T1, IX, SIX)" form.
func (h HolderEntry) String() string {
	return fmt.Sprintf("(%v, %v, %v)", h.Txn, h.Granted, h.Blocked)
}

// QueueEntry is one member of a resource's queue: (tid, bm).
type QueueEntry struct {
	Txn     TxnID
	Blocked lock.Mode // bm: the requested mode
	Held    int32     // the wait's stamp, as HolderEntry.Held
}

// String prints the paper's "(T5, IX)" form.
func (q QueueEntry) String() string {
	return fmt.Sprintf("(%v, %v)", q.Txn, q.Blocked)
}

// Grant records that a blocked request became granted during rescheduling.
type Grant struct {
	Txn      TxnID
	Resource ResourceID
	Mode     lock.Mode // the mode now effectively granted (after conversion)
}

// String prints a grant as "T3+=S@R1".
func (g Grant) String() string {
	return fmt.Sprintf("%v+=%v@%s", g.Txn, g.Mode, string(g.Resource))
}

// Resource is the lock-table entry for one locked resource. Its holder
// list keeps all blocked upgraders (bm != NL) before all granted holders
// (bm == NL); the blocked prefix is ordered by the UPR, and newly granted
// entries are inserted at the head of the granted suffix (this reproduces
// the holder orders printed in the paper's examples).
type Resource struct {
	id      ResourceID
	total   lock.Mode // tm
	holders []HolderEntry
	queue   []QueueEntry
	// activeIdx is the resource's 1-based position in its table's active
	// set, 0 while it is not a member (see Table.active).
	activeIdx int
}

// ID returns the resource identifier.
func (r *Resource) ID() ResourceID { return r.id }

// TotalMode returns tm, the conversion-fold of every holder's granted and
// blocked modes.
func (r *Resource) TotalMode() lock.Mode { return r.total }

// Holders returns a copy of the holder list in table order.
func (r *Resource) Holders() []HolderEntry {
	out := make([]HolderEntry, len(r.holders))
	copy(out, r.holders)
	return out
}

// Queue returns a copy of the queue in FIFO order.
func (r *Resource) Queue() []QueueEntry {
	out := make([]QueueEntry, len(r.queue))
	copy(out, r.queue)
	return out
}

// NumHolders returns the holder-list length without copying.
func (r *Resource) NumHolders() int { return len(r.holders) }

// HolderAt returns the i-th holder entry (0-based, table order).
func (r *Resource) HolderAt(i int) HolderEntry { return r.holders[i] }

// QueueLen returns the queue length without copying.
func (r *Resource) QueueLen() int { return len(r.queue) }

// QueueAt returns the i-th queue entry (0-based, FIFO order).
func (r *Resource) QueueAt(i int) QueueEntry { return r.queue[i] }

// Holder returns the holder entry of txn, if present.
func (r *Resource) Holder(txn TxnID) (HolderEntry, bool) {
	if i := r.holderIndex(txn); i >= 0 {
		return r.holders[i], true
	}
	return HolderEntry{}, false
}

// String prints the resource in the paper's notation, e.g.
// "R1(SIX): Holder((T1, IX, SIX) (T2, IS, S)) Queue((T5, IX) (T6, S))".
func (r *Resource) String() string {
	s := fmt.Sprintf("%s(%v): Holder(", string(r.id), r.total)
	for i, h := range r.holders {
		if i > 0 {
			s += " "
		}
		s += h.String()
	}
	s += ") Queue("
	for i, q := range r.queue {
		if i > 0 {
			s += " "
		}
		s += q.String()
	}
	return s + ")"
}

func (r *Resource) holderIndex(txn TxnID) int {
	for i, h := range r.holders {
		if h.Txn == txn {
			return i
		}
	}
	return -1
}

func (r *Resource) queueIndex(txn TxnID) int {
	for i, q := range r.queue {
		if q.Txn == txn {
			return i
		}
	}
	return -1
}

// contended reports whether the resource can carry a graph edge: it
// has a queued waiter or a blocked conversion. This is the active set's
// membership predicate.
func (r *Resource) contended() bool {
	return len(r.queue) > 0 || (len(r.holders) > 0 && r.holders[0].Blocked != lock.NL)
}

// blockedLen returns the length of the blocked-upgrader prefix of the
// holder list.
func (r *Resource) blockedLen() int {
	n := 0
	for n < len(r.holders) && r.holders[n].Blocked != lock.NL {
		n++
	}
	return n
}

// recomputeTotal refolds tm from scratch, as Section 3 prescribes after a
// holder is deleted.
func (r *Resource) recomputeTotal() {
	tm := lock.NL
	for _, h := range r.holders {
		tm = lock.Conv(lock.Conv(tm, h.Granted), h.Blocked)
	}
	r.total = tm
}

// txnState tracks the per-transaction side of the table (the TST's pr and
// holding information).
type txnState struct {
	held      []*Resource // resources where the txn has a holder entry, in acquisition order
	waitingOn *Resource   // resource where the txn is blocked, nil if runnable
	waitMode  lock.Mode   // mode the txn waits to acquire (bm)
	upgrading bool        // blocked inside the holder list (conversion) rather than the queue
}

// Table is the lock manager state: all locked resources plus per-
// transaction wait/hold bookkeeping. The zero value is not usable; call
// New.
type Table struct {
	// DisableUPR is the Upgrader Positioning Rule ablation: blocked
	// conversions keep pure arrival order instead of the UPR order. Set
	// it before issuing requests. Without the UPR, a grantable upgrade
	// can be stranded behind an ungrantable one (Theorem 3.1 no longer
	// holds) and the resulting mutual blockage becomes an ECR-1 cycle —
	// a deadlock the detector must resolve by abort where the UPR would
	// simply have granted. Validate reports such strandings as errors,
	// so do not combine the ablation with Validate.
	DisableUPR bool

	resources map[ResourceID]*Resource
	txns      map[TxnID]*txnState

	// active is the set of contended resources — the only ones ECR 1–3
	// draw edges at — in no particular order. A resource enters at its
	// first enqueue or blocked conversion and leaves when its queue and
	// blocked prefix drain; Resource.activeIdx is the back-index that
	// makes both O(1). A detector activation copies this set, not the
	// table (Snapshot.CopyShard).
	active []*Resource

	// resCache is the sorted resource list, rebuilt lazily when the
	// resource set changes; detectors walk it on every activation.
	resCache []*Resource
	resDirty bool

	// grantBuf is the reusable grant scratch: Release/Abort/ScheduleQueue
	// results live here until the next table operation, so the contended
	// hand-off path allocates nothing in steady state.
	grantBuf []Grant

	// resFree and stFree recycle Resource and txnState records: a
	// resource deleted when its last holder leaves, and a transaction's
	// state deleted at commit/abort, go here instead of to the garbage
	// collector, keeping their slice capacities for the next
	// request/first-touch. Nothing outside the table retains these
	// pointers across operations (Holders/Queue/Held return copies, the
	// snapshot copies into its own arena), so recycling is invisible.
	resFree []*Resource
	stFree  []*txnState
}

// freeListCap bounds each freelist so a burst of churn cannot pin an
// arbitrary amount of memory forever.
const freeListCap = 256

// mintCap is the held-list capacity a transaction's state gets when a
// freelist miss mints it. The list takes an entry at once, so the make
// costs no more allocations than the first append would; and since the
// freelist hands states out LIFO, each with the capacity its last use
// left it, a common floor keeps a state recycled into a busier
// transaction from growing long after warm-up. Resource records get no
// such floor: most hold one entry (a bystander's lock), and the spare
// slots would cost ~5 % of the live heap of a table of 2048 of them.
const mintCap = 4

// New returns an empty lock table.
func New() *Table {
	return &Table{
		resources: make(map[ResourceID]*Resource),
		txns:      make(map[TxnID]*txnState),
		// Full-capacity freelists up front: retire never reallocates,
		// so churn-heavy paths (detector aborts, release storms) stay
		// allocation-free after construction.
		resFree: make([]*Resource, 0, freeListCap),
		stFree:  make([]*txnState, 0, freeListCap),
	}
}

// Errors reported by Table operations.
var (
	// ErrBlocked: a transaction issued a lock request while it was
	// already blocked; the paper's model forbids this ("a transaction
	// cannot request another resource when being blocked").
	ErrBlocked = errors.New("table: transaction is blocked and cannot issue requests")
	// ErrCommitWhileBlocked: Release (commit) was called for a blocked
	// transaction.
	ErrCommitWhileBlocked = errors.New("table: blocked transaction cannot commit")
	// ErrBadTxn: operation on the null transaction id.
	ErrBadTxn = errors.New("table: invalid transaction id 0")
	// ErrBadMode: a request for NL or an undefined mode.
	ErrBadMode = errors.New("table: invalid lock mode for a request")
)

func (t *Table) state(txn TxnID) *txnState {
	st, ok := t.txns[txn]
	if !ok {
		if n := len(t.stFree); n > 0 {
			st = t.stFree[n-1]
			t.stFree = t.stFree[:n-1]
		} else {
			st = &txnState{held: make([]*Resource, 0, mintCap)} //hwlint:allow allocbudget -- freelist miss: recycled by retireState, amortized out of steady-state allocs/op (TestAllocationPins)
		}
		t.txns[txn] = st
	}
	return st
}

// retireState recycles a txnState whose transaction just left the
// table. The caller has already deleted it from t.txns.
func (t *Table) retireState(st *txnState) {
	if len(t.stFree) >= freeListCap {
		return
	}
	st.held = st.held[:0]
	st.waitingOn = nil
	st.waitMode = lock.NL
	st.upgrading = false
	t.stFree = append(t.stFree, st)
}

// retireResource recycles a Resource record that just became unlocked
// and unqueued. The caller has already deleted it from t.resources.
func (t *Table) retireResource(r *Resource) {
	if len(t.resFree) >= freeListCap {
		return
	}
	r.id = ""
	r.total = lock.NL
	r.holders = r.holders[:0]
	r.queue = r.queue[:0]
	t.resFree = append(t.resFree, r)
}

// activate puts r into the active set; the caller has just queued a
// request on it or blocked a conversion in its holder list.
//
//hwlint:hotpath allocs=0
func (t *Table) activate(r *Resource) {
	if r.activeIdx == 0 {
		t.active = append(t.active, r)
		r.activeIdx = len(t.active)
	}
}

// deactivate takes r out of the active set once nothing waits on it any
// more. Every path that shortens a queue or a blocked prefix ends in
// grantFromQueue, which calls this.
//
//hwlint:hotpath allocs=0
func (t *Table) deactivate(r *Resource) {
	if r.activeIdx == 0 || r.contended() {
		return
	}
	last := len(t.active) - 1
	moved := t.active[last]
	t.active[r.activeIdx-1] = moved
	moved.activeIdx = r.activeIdx
	t.active[last] = nil
	t.active = t.active[:last]
	r.activeIdx = 0
}

// Resource returns the table entry for rid, or nil if rid is not locked.
func (t *Table) Resource(rid ResourceID) *Resource { return t.resources[rid] }

// Resources returns all locked resources sorted by id. The slice is
// freshly allocated; EachResource iterates without copying.
func (t *Table) Resources() []*Resource {
	t.refreshCache()
	return append([]*Resource(nil), t.resCache...)
}

// EachResource calls f for every locked resource in id order, stopping
// if f returns false. It does not allocate; f must not create or
// release resources.
func (t *Table) EachResource(f func(*Resource) bool) {
	t.refreshCache()
	for _, r := range t.resCache {
		if !f(r) {
			return
		}
	}
}

func (t *Table) refreshCache() {
	if !t.resDirty && t.resCache != nil && len(t.resCache) == len(t.resources) {
		return
	}
	t.resCache = t.resCache[:0]
	for _, r := range t.resources {
		t.resCache = append(t.resCache, r)
	}
	sort.Slice(t.resCache, func(i, j int) bool { return t.resCache[i].id < t.resCache[j].id })
	t.resDirty = false
}

// Blocked reports whether txn is currently blocked (waiting in a queue or
// on a conversion).
func (t *Table) Blocked(txn TxnID) bool {
	st, ok := t.txns[txn]
	return ok && st.waitingOn != nil
}

// WaitingOn returns the resource id txn is blocked on, the mode it waits
// for, and whether it is blocked at all. This is the TST's pr attribute.
func (t *Table) WaitingOn(txn TxnID) (ResourceID, lock.Mode, bool) {
	st, ok := t.txns[txn]
	if !ok || st.waitingOn == nil {
		return "", lock.NL, false
	}
	return st.waitingOn.id, st.waitMode, true
}

// Upgrading reports whether txn is blocked inside a holder list (a lock
// conversion) as opposed to a queue.
func (t *Table) Upgrading(txn TxnID) bool {
	st, ok := t.txns[txn]
	return ok && st.waitingOn != nil && st.upgrading
}

// Held returns the ids of the resources on which txn has a holder entry,
// in acquisition order.
func (t *Table) Held(txn TxnID) []ResourceID {
	st, ok := t.txns[txn]
	if !ok {
		return nil
	}
	out := make([]ResourceID, len(st.held))
	for i, r := range st.held {
		out[i] = r.id
	}
	return out
}

// AppendHeld appends the ids of the resources on which txn has a holder
// entry to dst, in acquisition order, and returns the extended slice —
// the allocation-free form of Held for callers that bring their own
// scratch.
func (t *Table) AppendHeld(dst []ResourceID, txn TxnID) []ResourceID {
	st, ok := t.txns[txn]
	if !ok {
		return dst
	}
	for _, r := range st.held {
		dst = append(dst, r.id)
	}
	return dst
}

// HeldMode returns the granted mode txn holds on rid (NL if none).
func (t *Table) HeldMode(txn TxnID, rid ResourceID) lock.Mode {
	r := t.resources[rid]
	if r == nil {
		return lock.NL
	}
	if h, ok := r.Holder(txn); ok {
		return h.Granted
	}
	return lock.NL
}

// Txns returns the ids of every transaction known to the table (holding
// or waiting), sorted.
func (t *Table) Txns() []TxnID {
	out := make([]TxnID, 0, len(t.txns))
	for id, st := range t.txns {
		if len(st.held) == 0 && st.waitingOn == nil {
			continue
		}
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String prints every locked resource in the paper's notation, one per
// line, sorted by resource id.
func (t *Table) String() string {
	s := ""
	for _, r := range t.Resources() {
		if len(r.holders) == 0 && len(r.queue) == 0 {
			continue
		}
		s += r.String() + "\n"
	}
	return s
}

// Clone returns a deep copy of the table. Analyses that need to try
// hypothetical schedules (e.g. the deadlock ground-truth oracle in the
// twbg tests) work on clones.
func (t *Table) Clone() *Table {
	c := New()
	c.DisableUPR = t.DisableUPR
	for rid, r := range t.resources {
		nr := &Resource{id: rid, total: r.total}
		nr.holders = append([]HolderEntry(nil), r.holders...)
		nr.queue = append([]QueueEntry(nil), r.queue...)
		c.resources[rid] = nr
		if r.activeIdx != 0 {
			c.activate(nr)
		}
	}
	for id, st := range t.txns {
		ns := &txnState{waitMode: st.waitMode, upgrading: st.upgrading}
		for _, r := range st.held {
			ns.held = append(ns.held, c.resources[r.id])
		}
		if st.waitingOn != nil {
			ns.waitingOn = c.resources[st.waitingOn.id]
		}
		c.txns[id] = ns
	}
	return c
}
