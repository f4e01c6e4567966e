package hwtwbg

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"hwtwbg/journal"
)

// txnState is the owner-goroutine view of a transaction's lifecycle.
type txnState byte

const (
	live txnState = iota
	abortedState
	committedState
)

// maxInlineShards sizes the touched-shard set inlined into the Txn
// struct; a transaction spanning more shards spills into an overflow
// slice (itself reused across pooled incarnations).
const maxInlineShards = 4

// Txn is a handle to one transaction. A handle must be used from a
// single goroutine at a time (the usual transaction discipline);
// distinct transactions may run on distinct goroutines concurrently.
type Txn struct {
	id    TxnID
	m     *Manager
	state txnState
	begun bool // begin record journaled (lazily, at the first lock request)

	// tag is the application-defined operation tag (SetTag); 0 = none.
	tag uint64

	// held counts the locks granted to this transaction, in every
	// shard; conversions add none. It is the stamp every request of
	// this transaction carries into its shard table, where a request
	// that blocks keeps it as the victim price the detector reads
	// (table.HolderEntry.Held). Owner goroutine only.
	held int

	// The touched-shard set: shards where this txn holds or waits, in
	// first-use order. An inline array covers the common case, so
	// noting a shard allocates nothing until a transaction spans more
	// than maxInlineShards shards.
	ntouched   int
	touchedArr [maxInlineShards]*shard
	touchedOvf []*shard

	heldBuf []ResourceID // scratch returned by Held, reused across calls

	batch batchScratch // LockAll's sort and flush scratch, reused across batches

	// epoch counts pooled incarnations of this struct: Begin bumps it
	// when reviving a recycled Txn, so a stale handle that survived a
	// Recycle is distinguishable in a debugger (and unambiguously a
	// use-after-Recycle bug). pooled latches the hand-back so a double
	// Recycle can never put one struct into the pool twice.
	epoch  uint64
	pooled atomic.Bool
}

// txnPool recycles Txn structs between Recycle and Begin. The pool has
// no New: Begin allocates on a miss, so callers that never Recycle pay
// one small allocation per transaction and nothing else changes.
var txnPool sync.Pool

// Begin starts a new transaction. It is a single atomic counter
// increment plus a pool pop; no lock is taken and nothing is registered
// — the manager learns about the transaction when its first lock
// request lands in a shard.
func (m *Manager) Begin() *Txn {
	t, _ := txnPool.Get().(*Txn)
	if t == nil {
		t = &Txn{}
	} else {
		t.epoch++
		t.pooled.Store(false)
	}
	t.id = TxnID(m.nextID.Add(1))
	t.m = m
	t.state = live
	t.begun = false
	t.tag = 0
	t.held = 0
	return t
}

// SetTag attaches an application-defined operation tag to the
// transaction: a compact uint64 trace/op id (an order id, a request
// hash, a span id) that the flight recorder journals as an op-tag
// record, so postmortems, `hwtrace report` and near-miss output can
// group wait chains by the application operation that caused them —
// across the process boundary when the tag arrives over the wire
// (lockservice `tag=` on BEGIN/LOCK/LOCKALL). The tag is a uint64, not
// a string, so attaching one stays allocation-free (the journal's
// Ring.Emit keeps its allocs=0 budget; a string tag would have to be
// copied into the record). Setting the same tag again is a no-op; tag
// 0 clears without journaling. Owner goroutine only.
func (t *Txn) SetTag(tag uint64) {
	if t.tag == tag {
		return
	}
	t.tag = tag
	if t.m != nil && tag != 0 {
		t.m.journalControl(journal.KindOpTag, t.id, 0, tag)
	}
}

// Recycle hands a finished transaction's struct back to the allocation
// pool. It is purely an allocation optimization for callers that own
// the handle's entire lifecycle (Do/DoWith, and so kv's Update and View,
// and the lockservice session loop use it); everyone else can simply
// drop the handle. The caller must not touch t after Recycle — the next Begin
// may revive the struct for an unrelated transaction (a new
// incarnation epoch). Recycling a live transaction is a no-op, as is a
// second Recycle of the same incarnation.
func (t *Txn) Recycle() {
	if t == nil || t.state == live {
		return
	}
	if !t.pooled.CompareAndSwap(false, true) {
		return
	}
	t.m = nil
	t.clearTouched()
	txnPool.Put(t)
}

// journalBegin lazily emits this transaction's begin record when its
// first lock request reaches a shard. Deferring the record to first
// use keeps Begin a pair of cheap atomics and matches the manager's
// view of the world: a transaction that never requests a lock never
// existed as far as the lock table — or the flight recorder — is
// concerned, so its commit or abort journals nothing either.
//
// ts is the stamp of the round that decided the first request; the
// begin record is stamped one nanosecond earlier so a merged snapshot
// (sorted by timestamp, ties broken by ring index, with the control
// ring last) orders the begin strictly before the request's grant or
// block records. Reusing the round's clock read keeps the record free.
func (t *Txn) journalBegin(ts int64) {
	if t.begun {
		return
	}
	t.begun = true
	t.m.journalControl(journal.KindBegin, t.id, ts-1, 0)
}

// journalControl writes one transaction-lifecycle record (begin, op tag,
// commit, abort) to the flight recorder's control ring; a zero ts is
// read from the manager's clock here, so a disabled journal costs no
// clock read. No-op when the journal is disabled; never takes a lock,
// never allocates, never blocks.
func (m *Manager) journalControl(kind journal.Kind, id TxnID, ts int64, arg uint64) {
	if m.jr == nil {
		return
	}
	if ts == 0 {
		ts = m.now()
	}
	rec := journal.Record{TS: ts, Txn: int64(id), Arg: arg, Kind: kind}
	m.jr.Control().Emit(&rec)
}

// observeAbort is the owner's one exit for an abort it has just
// observed — its own Abort, a cancelled wait, or an external verdict
// (deadlock victim, Close): when it ended a wait in shard s (nil
// otherwise) the wait is counted as aborted, and the abort is journaled
// if ts, the end record's stamp from endStamp, is set. It is set only
// when the owner released its locks itself: the detector and Close
// journal the aborts they decide (see abortVictim), and endStamp is
// zero for a transaction with no begin record.
func (t *Txn) observeAbort(s *shard, ts int64) {
	if s != nil {
		s.met.waitAborts.Inc()
	}
	if ts != 0 {
		t.m.journalControl(journal.KindAbort, t.id, ts, 0)
	}
}

// endStamp reads the stamp of the transaction's end record (commit or
// abort). Commit and abortTables call it under the first shard mutex
// they take, before any lock is released: a waiter that a release wakes
// stamps its hand-off grant in a later round of that shard, and every
// later shard is released later still, so the end record sorts before
// every grant it caused. Zero — no clock read — when nothing will be
// journaled.
func (t *Txn) endStamp() int64 {
	if !t.begun || t.m.jr == nil {
		return 0
	}
	return t.m.now()
}

// ID returns the transaction identifier.
func (t *Txn) ID() TxnID { return t.id }

// consumeCondemned reports whether an externally-initiated abort
// (deadlock victim, Close) is pending for this transaction, consuming
// the mark. Owner goroutine only.
func (t *Txn) consumeCondemned() bool {
	return t.m.condemned.take(t.id)
}

// noteShard remembers that this transaction has state in s.
func (t *Txn) noteShard(s *shard) {
	n := t.ntouched
	if n > maxInlineShards {
		n = maxInlineShards
	}
	for i := 0; i < n; i++ {
		if t.touchedArr[i] == s {
			return
		}
	}
	for _, x := range t.touchedOvf {
		if x == s {
			return
		}
	}
	if t.ntouched < maxInlineShards {
		t.touchedArr[t.ntouched] = s
	} else {
		t.touchedOvf = append(t.touchedOvf, s)
	}
	t.ntouched++
}

// noteGrant counts a granted request into held; a conversion adds no
// lock.
func (t *Txn) noteGrant(conv bool) {
	if !conv {
		t.held++
	}
}

// touchedAt returns the i-th touched shard in first-use order.
func (t *Txn) touchedAt(i int) *shard {
	if i < maxInlineShards {
		return t.touchedArr[i]
	}
	return t.touchedOvf[i-maxInlineShards]
}

// clearTouched empties the touched-shard set, dropping shard pointers
// (so a pooled Txn pins nothing) but keeping the overflow capacity.
func (t *Txn) clearTouched() {
	for i := range t.touchedArr {
		t.touchedArr[i] = nil
	}
	for i := range t.touchedOvf {
		t.touchedOvf[i] = nil
	}
	t.touchedOvf = t.touchedOvf[:0]
	t.ntouched = 0
}

// Lock acquires mode on resource r, blocking until the request is
// granted. It returns ErrAborted when the transaction was sacrificed to
// break a deadlock, ctx.Err() when the context is cancelled mid-wait
// (cancellation aborts the whole transaction, since strict two-phase
// locking cannot retract a single queued request), and ErrDone if the
// transaction already finished.
//
// The allocation budget below is TestAllocationPins' gate made static:
// the allocbudget analyzer counts every heap-allocation site reachable
// from here across the whole call tree, and exactly one is provable —
// the table's Resource first-touch literal. (The dynamic allocs/op of
// the ManagerConflict row stays TestAllocationPins' job; the static
// gate catches anyone adding a new site to the path.)
//
//hwlint:hotpath allocs=1
func (t *Txn) Lock(ctx context.Context, r ResourceID, mode Mode) error {
	s := t.m.shardFor(r)
	// One clock read per request: it stamps the round right after the
	// table operation, under the mutex. Only a contended mutex costs a
	// second read, before the wait for it, so time_to_grant prices the
	// wait.
	var start int64
	if !s.mu.TryLock() {
		start = t.m.now()
		s.mu.Lock()
	}
	s.met.mutexAcquires.Inc()
	if err := t.checkLive(); err != nil {
		s.mu.Unlock()
		return err
	}
	res, err := s.tb.RequestHeld(t.id, r, mode, t.held)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	ts := t.m.now()
	if start == 0 {
		start = ts
	}
	s.epoch.bump()
	t.noteShard(s)
	var c requestTally
	c.note(res, mode)
	s.met.count(&c)
	if res.Granted {
		s.mu.Unlock()
		t.journalBegin(ts)
		t.noteGrant(res.Conversion)
		s.granted(t.id, r, mode, ts, time.Duration(ts-start), 0, res.Conversion, false)
		return nil
	}
	// Blocked: register a waiter channel and park in waitGrant. The
	// channel lives in the resource's shard, which is where every grant
	// that can unblock us originates. It is a pooled one-token signal: a
	// waker deposits a token and unregisters it, the waiter consumes the
	// token and re-registers if still blocked, and every exit path
	// unregisters under the shard mutex before recycling it (see
	// putWaiter for why that order makes reuse safe).
	ch := getWaiter()
	s.waiters[t.id] = ch
	s.mu.Unlock()
	t.journalBegin(ts)
	s.blocked(t.id, r, mode, ts, res.QueueDepth, res.Conversion)
	return t.waitGrant(ctx, s, ch, start, ts, r, mode, res.Conversion)
}

// waitGrant parks the owner goroutine of a blocked request until the
// request is granted, the transaction is aborted or cancelled, or the
// manager closes. ch is the waiter channel registered under the shard
// mutex by the round that blocked the request; start is the request's
// start and blockedAt that round's stamp, both from the manager's
// clock; conv is the request's Conversion fact from that round, for
// the grant report. The clock is read once more, at the wake that ends
// the wait.
func (t *Txn) waitGrant(ctx context.Context, s *shard, ch chan struct{}, start, blockedAt int64, r ResourceID, mode Mode, conv bool) error {
	for {
		select {
		case <-ctx.Done():
			// Abort the whole transaction: a queued request cannot be
			// retracted in isolation under strict 2PL. abortTables
			// unregisters our waiter entry in s (a touched shard), but a
			// pending externally-initiated abort skips it, so unregister
			// explicitly before recycling the channel.
			var ts int64
			if t.checkLive() == nil {
				ts = t.abortTables()
				t.state = abortedState
			}
			s.mu.Lock()
			delete(s.waiters, t.id)
			s.mu.Unlock()
			putWaiter(ch)
			t.observeAbort(s, ts)
			return ctx.Err()
		case <-ch:
		}
		s.mu.Lock()
		s.met.mutexAcquires.Inc()
		if err := t.checkLive(); err != nil {
			delete(s.waiters, t.id)
			s.mu.Unlock()
			putWaiter(ch)
			if !errors.Is(err, ErrAborted) {
				// ErrClosed ahead of Close's own sweep: the wait ends here,
				// the abort is still Close's to deliver.
				s.met.waitAborts.Inc()
				return err
			}
			if !t.m.closed.Load() {
				// A deadlock victim: its wait span is the persistence-
				// cost sample for the scheduling cost model (Close also
				// condemns, but arrives with closed already set).
				t.m.cost.observeVictimWait(time.Duration(t.m.now()-blockedAt), t.m.currentPeriod())
			}
			t.observeAbort(s, 0)
			return err
		}
		if !s.tb.Blocked(t.id) {
			// Granted. The hand-off grant itself was counted (per mode)
			// by the granting shard; the waiter stamps it in this round
			// and observes its latency.
			wake := t.m.now()
			delete(s.waiters, t.id)
			s.mu.Unlock()
			putWaiter(ch)
			t.noteGrant(conv)
			s.granted(t.id, r, mode, wake, time.Duration(wake-start), time.Duration(wake-blockedAt), conv, false)
			return nil
		}
		// Spurious wake: re-register and wait. Drain any token deposited
		// while the channel was out of the map first, so a registered
		// channel is always empty.
		select {
		case <-ch:
		default:
		}
		s.waiters[t.id] = ch
		s.mu.Unlock()
	}
}

// TryLock attempts the request without blocking and reports whether the
// lock was granted. A request that would block is refused outright (it
// is never queued), so TryLock never deadlocks and never leaves the
// transaction waiting. It reads the clock as Lock does.
func (t *Txn) TryLock(r ResourceID, mode Mode) (bool, error) {
	s := t.m.shardFor(r)
	var start int64
	if !s.mu.TryLock() {
		start = t.m.now()
		s.mu.Lock()
	}
	s.met.mutexAcquires.Inc()
	if err := t.checkLive(); err != nil {
		s.mu.Unlock()
		return false, err
	}
	if !s.tb.WouldGrant(t.id, r, mode) {
		s.met.tryRefused.Inc()
		ts := t.m.now()
		s.mu.Unlock()
		t.journalBegin(ts)
		s.refused(t.id, r, mode, ts)
		return false, nil
	}
	res, err := s.tb.RequestHeld(t.id, r, mode, t.held)
	if res.Granted {
		ts := t.m.now()
		if start == 0 {
			start = ts
		}
		s.epoch.bump()
		t.noteShard(s)
		var c requestTally
		c.note(res, mode)
		s.met.count(&c)
		s.mu.Unlock()
		t.journalBegin(ts)
		t.noteGrant(res.Conversion)
		s.granted(t.id, r, mode, ts, time.Duration(ts-start), 0, res.Conversion, true)
		return true, err
	}
	s.mu.Unlock()
	return res.Granted, err
}

// Held returns the resources this transaction currently holds locks on,
// grouped by shard in first-use order (acquisition order within each
// shard; with a single shard this is global acquisition order). The
// returned slice is scratch owned by the handle and is valid until the
// next Held call on it; callers that retain the ids must copy them.
func (t *Txn) Held() []ResourceID {
	t.heldBuf = t.heldBuf[:0]
	for i := 0; i < t.ntouched; i++ {
		s := t.touchedAt(i)
		s.mu.Lock()
		t.heldBuf = s.tb.AppendHeld(t.heldBuf, t.id)
		s.mu.Unlock()
	}
	return t.heldBuf
}

// Mode returns the granted mode this transaction holds on r (NL when
// none).
func (t *Txn) Mode(r ResourceID) Mode {
	s := t.m.shardFor(r)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tb.HeldMode(t.id, r)
}

// Commit releases every lock the transaction holds and finishes it.
// Transactions waiting on those locks are granted and woken. The
// shards are released one at a time — no global lock is taken; the
// detector never mistakes the intermediate states for a deadlock
// because a committing transaction is never blocked. The commit record
// is stamped in the first round, before any release (see endStamp).
func (t *Txn) Commit() error {
	if err := t.checkLive(); err != nil {
		return err
	}
	var ts int64
	for i := 0; i < t.ntouched; i++ {
		s := t.touchedAt(i)
		s.mu.Lock()
		if i == 0 {
			ts = t.endStamp()
		}
		s.met.mutexAcquires.Inc()
		grants, err := s.tb.Release(t.id)
		if err != nil {
			s.mu.Unlock()
			return err
		}
		s.epoch.bump()
		s.wakeGrants(grants)
		s.mu.Unlock()
	}
	// Close may have raced with the releases above; honor its verdict
	// (Close journaled the abort).
	if t.consumeCondemned() {
		t.state = abortedState
		t.observeAbort(nil, 0)
		return ErrAborted
	}
	t.state = committedState
	t.clearTouched()
	if t.begun {
		t.m.journalControl(journal.KindCommit, t.id, ts, 0)
	}
	return nil
}

// Abort rolls the transaction back, releasing everything it holds or
// waits for. Aborting a finished transaction is a no-op.
func (t *Txn) Abort() {
	if t.checkLive() != nil {
		return
	}
	ts := t.abortTables()
	t.state = abortedState
	t.observeAbort(nil, ts)
}

// abortTables removes the transaction from every shard it touched,
// waking the requests its departure grants, and returns the abort
// record's stamp, read in the first round (see endStamp). Called by the
// owner goroutine; shard locks are taken one at a time, which is safe
// because the detector only aborts blocked transactions and this one is
// live in its owner's hands.
func (t *Txn) abortTables() int64 {
	var ts int64
	for i := 0; i < t.ntouched; i++ {
		s := t.touchedAt(i)
		s.mu.Lock()
		if i == 0 {
			ts = t.endStamp()
		}
		s.met.mutexAcquires.Inc()
		// Unregister our own waiter entry, if any; the channel itself is
		// recycled by the wait loop that owns it.
		delete(s.waiters, t.id)
		grants := s.tb.Abort(t.id)
		s.epoch.bump()
		s.wakeGrants(grants)
		s.mu.Unlock()
	}
	t.clearTouched()
	// Consume any abort mark that raced in; we are aborted either way.
	t.m.condemned.take(t.id)
	return ts
}

// Err returns the transaction's terminal error: nil while live,
// ErrAborted or ErrDone afterwards.
func (t *Txn) Err() error {
	return t.checkLive()
}

// checkLive reports the transaction's error state, consuming any
// pending externally-initiated abort (deadlock victim, Close). Owner
// goroutine only; takes no locks unless a mark is pending somewhere —
// the condemned check is one atomic load of a count that is zero unless
// a deadlock was just broken.
func (t *Txn) checkLive() error {
	if t.state == live && t.consumeCondemned() {
		t.state = abortedState
	}
	switch t.state {
	case abortedState:
		return ErrAborted
	case committedState:
		return ErrDone
	}
	if t.m.closed.Load() {
		return ErrClosed
	}
	return nil
}
