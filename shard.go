package hwtwbg

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hwtwbg/internal/table"
	"hwtwbg/journal"
)

// shard is one stripe of the sharded lock-table facade: a sequential
// lock table, the mutex that serializes it, and the waiter channels of
// the transactions blocked on its resources. A resource lives entirely
// in the shard its id hashes to, so non-conflicting transactions on
// different resources never touch the same mutex; grant hand-off from a
// commit/abort stays within the shard, because a resource's waiters are
// by construction waiting in the resource's shard.
type shard struct {
	mu      sync.Mutex
	tb      *table.Table
	waiters map[TxnID]chan struct{} // signalled (one token) when the waiter should re-check its fate
	met     *shardMetrics           // this shard's padded metric block (atomic; readable without mu)
	jr      *journal.Ring           // this shard's flight-recorder ring (lock-free; nil when disabled)
	epoch   shardEpoch              // mutation version of tb; see shardEpoch
}

// shardEpoch is a shard table's mutation version: a monotonically
// increasing counter bumped — while holding the owning shard's mutex —
// by every mutex round that mutates the shard's lock table (grant,
// block, conversion, release, abort, LockAll batch, detector surgery).
// The incremental snapshot detector loads it without the mutex to
// decide whether the copy it took of the shard last activation is
// still current; an unchanged epoch proves the
// table is byte-identical to that copy. A load racing a bump simply
// observes the previous value: the detector then reuses a one-round-
// stale (but internally consistent) copy, which validate-then-act
// already tolerates, and the next activation sees the bump and
// recopies. The counter never wraps in practice (2^64 mutex rounds).
//
// hwlint:atomics-only — the counter may only be touched via its
// methods.
type shardEpoch struct {
	v atomic.Uint64
}

// bump advances the epoch; the caller holds the owning shard's mutex.
func (e *shardEpoch) bump() { e.v.Add(1) }

// load reads the epoch; callers need no lock (see shardEpoch).
func (e *shardEpoch) load() uint64 { return e.v.Load() }

// The emission seam: the only place a lock-path journal record is built
// and the grant, wait and queue-depth histograms are observed. The
// requester calls it after the shard mutex is released (hwlint's
// callbacklock proves it is never reached with one held), passing the
// stamp it read from the manager's clock inside the round that decided
// the request, so no report costs a clock read of its own and one
// shard's records carry their stamps in table order.

// granted reports a grant stamped ts, elapsed after the request. An
// immediate grant is stamped in the round that granted it, and elapsed
// is the wait for a contended shard mutex (0 when it was free). A
// waited grant is stamped at the waiter's wake and carries wait, its
// time blocked, so the blocked span can be rebuilt from it alone once
// the block record is overwritten. try marks a TryLock.
//
//hwlint:hotpath allocs=0
func (s *shard) granted(id TxnID, r ResourceID, mode Mode, ts int64, elapsed, wait time.Duration, conv, try bool) {
	s.met.grant.Observe(uint64(elapsed))
	if wait > 0 {
		s.met.wait.Observe(uint64(wait))
	}
	s.emit(journal.Record{TS: ts, Txn: int64(id), Arg: uint64(wait), Kind: journal.KindGrant, Mode: uint8(mode), Flags: requestFlags(conv, try)}, r)
}

// blocked reports a request enqueued depth deep in line, itself
// included, stamped ts in the round that enqueued it.
//
//hwlint:hotpath allocs=0
func (s *shard) blocked(id TxnID, r ResourceID, mode Mode, ts int64, depth int, conv bool) {
	s.met.queueDepth.Observe(uint64(depth))
	s.emit(journal.Record{TS: ts, Txn: int64(id), Arg: uint64(depth), Kind: journal.KindBlock, Mode: uint8(mode), Flags: requestFlags(conv, false)}, r)
}

// refused reports a TryLock probe that would have blocked: nothing was
// granted or enqueued, so the record is a bare request, stamped ts in
// the round that refused it.
//
//hwlint:hotpath allocs=0
func (s *shard) refused(id TxnID, r ResourceID, mode Mode, ts int64) {
	s.emit(journal.Record{TS: ts, Txn: int64(id), Kind: journal.KindRequest, Mode: uint8(mode), Flags: journal.FlagTry}, r)
}

// emit writes a lock-path record about r to the shard's ring.
func (s *shard) emit(rec journal.Record, r ResourceID) {
	if s.jr != nil {
		rec.SetResource(string(r))
		s.jr.Emit(&rec)
	}
}

// requestFlags flags a conversion or a probe rather than journaling it twice.
func requestFlags(conv, try bool) (f uint8) {
	if conv {
		f = journal.FlagConversion
	}
	if try {
		f |= journal.FlagTry
	}
	return f
}

// waiterPool recycles waiter channels across blocking Lock calls. A
// waiter channel is a one-token signal (capacity 1), not a closed-once
// broadcast, precisely so it can be reused: the waiter drains any stale
// token before returning its channel to the pool.
var waiterPool = sync.Pool{New: func() any { return make(chan struct{}, 1) }}

// getWaiter hands out a recycled (empty) waiter channel.
func getWaiter() chan struct{} { return waiterPool.Get().(chan struct{}) }

// putWaiter returns a waiter channel to the pool, draining a token a
// waker may have sent after the waiter stopped listening. The caller
// must already have removed the channel from the shard's waiter map
// under the shard mutex — tokens are only ever sent under that mutex to
// channels still in the map, so after removal no further token can
// arrive and the drained channel is safe to reuse.
func putWaiter(ch chan struct{}) {
	select {
	case <-ch:
	default:
	}
	waiterPool.Put(ch)
}

// wake signals one waiter, if present, and unregisters it (the waiter
// re-registers its channel if it decides to keep waiting). Called with
// mu held. The send cannot block: a registered channel is always empty,
// because a waker removes the channel when it deposits a token and the
// waiter consumes the token before re-registering.
func (s *shard) wake(id TxnID) {
	if ch, ok := s.waiters[id]; ok {
		select {
		case ch <- struct{}{}:
		default:
		}
		delete(s.waiters, id)
	}
}

// wakeAll signals every waiter to re-check its state. Called with mu
// held.
func (s *shard) wakeAll() {
	for id, ch := range s.waiters {
		select {
		case ch <- struct{}{}:
		default:
		}
		delete(s.waiters, id)
	}
}

// wakeGrants wakes the transaction behind every grant and counts the
// grants served. Called with mu held.
func (s *shard) wakeGrants(grants []table.Grant) {
	for _, g := range grants {
		s.wake(g.Txn)
	}
	s.countGrants(grants)
}

// countGrants counts hand-off grants into the shard's metric block,
// per mode (the effective post-conversion mode the table reports). The
// counters are atomic, so both mutex-holding callers (commit/abort
// hand-off) and the stopped-world detector may call this.
func (s *shard) countGrants(grants []table.Grant) {
	for _, g := range grants {
		if int(g.Mode) < len(s.met.handoffByMode) {
			s.met.handoffByMode[g.Mode].Inc()
		}
	}
}

// shardIndex maps a resource id to a shard index: FNV-1a over the id,
// masked to the power-of-two shard count.
func shardIndex(r table.ResourceID, mask uint32) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(r); i++ {
		h ^= uint32(r[i])
		h *= 16777619
	}
	h ^= h >> 16
	return h & mask
}

// shardFor maps a resource id to its owning shard.
func (m *Manager) shardFor(r ResourceID) *shard {
	return m.shards[shardIndex(r, m.mask)]
}

// stopTheWorld acquires every shard mutex in index order, freezing the
// whole lock table. This is the sharded facade's one global
// synchronization point: Close and the consistent-view diagnostics
// (Snapshot, DOT, Deadlocked) run inside it; the periodic detector does
// not. Two goroutines stopping the world serialize on shard 0's mutex,
// so the in-order acquisition cannot deadlock.
func (m *Manager) stopTheWorld() {
	for _, s := range m.shards {
		s.mu.Lock()
	}
}

// resumeTheWorld releases the shard mutexes in reverse order.
func (m *Manager) resumeTheWorld() {
	for i := len(m.shards) - 1; i >= 0; i-- {
		m.shards[i].mu.Unlock()
	}
}

// lockShards acquires the shard mutexes at the given indices, which
// must be sorted ascending and deduplicated. This is the stopTheWorld
// discipline restricted to a subset — every multi-shard locker in the
// manager acquires in ascending index order, so subsets, full stops and
// single-shard operations can never deadlock against each other. The
// snapshot detector's validate-then-act phase uses it to pin only the
// shards a cycle actually touches.
//
//hwlint:allow lockorder -- idx is sorted ascending and deduplicated by every caller (cycleShards); the sortedness is this function's documented precondition
func (m *Manager) lockShards(idx []uint32) {
	for _, i := range idx {
		m.shards[i].mu.Lock()
	}
}

// unlockShards releases the mutexes taken by lockShards, in reverse.
func (m *Manager) unlockShards(idx []uint32) {
	for i := len(idx) - 1; i >= 0; i-- {
		m.shards[idx[i]].mu.Unlock()
	}
}

// multiTable presents S sharded lock tables to the consistent-view
// diagnostics (Snapshot, DOT, Edges, Deadlocked) as one merged table
// implementing twbg.Source. Every method accesses the shard tables
// WITHOUT locking: a multiTable may only be used by a goroutine that
// has stopped the world, which is what makes the lock-free access — and
// the globally consistent view — safe.
type multiTable struct {
	shards  []*shard
	scratch []*table.Resource // merged, id-sorted resource list, reused across activations
}

// EachResource iterates every locked resource across all shards in
// global id order — the order the detector's Step 1 wiring and victim
// choices are defined over, so the merged view renders and analyses any
// given logical state identically to a single-table one.
func (mt *multiTable) EachResource(f func(*table.Resource) bool) {
	mt.scratch = mt.scratch[:0]
	for _, s := range mt.shards {
		s.tb.EachResource(func(r *table.Resource) bool {
			mt.scratch = append(mt.scratch, r)
			return true
		})
	}
	sort.Slice(mt.scratch, func(i, j int) bool { return mt.scratch[i].ID() < mt.scratch[j].ID() })
	for _, r := range mt.scratch {
		if !f(r) {
			return
		}
	}
}

// String renders the merged table in the paper's notation, one resource
// per line in id order.
func (mt *multiTable) String() string {
	var b strings.Builder
	mt.EachResource(func(r *table.Resource) bool {
		if r.NumHolders() > 0 || r.QueueLen() > 0 {
			b.WriteString(r.String())
			b.WriteByte('\n')
		}
		return true
	})
	return b.String()
}
