// Package journalemit is the fixture for the flight-recorder emission
// discipline, checked by two analyzers at once: callbacklock proves a
// journal write never happens while a shard mutex is held (the txn.go
// sites emit after Unlock, through the emission seam), and atomics
// proves the ring's lock-free internals are only touched through their
// methods.
package journalemit

import (
	"sync"
	"sync/atomic"

	"hwtwbg/journal"
)

type shard struct {
	mu sync.Mutex
	jr *journal.Ring
}

// goodEmit mirrors the hot-path discipline: the record is built on the
// stack and emitted after the shard mutex is released.
func (s *shard) goodEmit(txn int64) {
	s.mu.Lock()
	granted := true
	s.mu.Unlock()
	if granted && s.jr != nil {
		rec := journal.Record{Txn: txn, Kind: journal.KindGrant}
		rec.SetResource("accounts/7")
		s.jr.Emit(&rec)
	}
}

// badEmit journals while the shard mutex is held.
func (s *shard) badEmit(txn int64) {
	s.mu.Lock()
	rec := journal.Record{Txn: txn, Kind: journal.KindBlock}
	s.jr.Emit(&rec) // want "journal.Ring.Emit while a shard mutex is held"
	s.mu.Unlock()
}

// contendedEmit takes the mutex the way the lock path does: TryLock
// first, Lock only when it is held. The round's record must still be
// emitted after Unlock; one seeded before it is reported.
func (s *shard) contendedEmit(txn int64) {
	var waited bool
	if !s.mu.TryLock() {
		waited = true
		s.mu.Lock()
	}
	rec := journal.Record{Txn: txn, Kind: journal.KindGrant}
	if waited {
		rec.Flags = 1
	}
	s.jr.Emit(&rec) // want "journal.Ring.Emit while a shard mutex is held"
	s.mu.Unlock()
	s.jr.Emit(&rec)
}

// deferredEmit is held to function end by the deferred unlock.
func (s *shard) deferredEmit(txn int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := journal.Record{Txn: txn, Kind: journal.KindAbort}
	s.jr.Emit(&rec) // want "journal.Ring.Emit while a shard mutex is held"
}

// allowedEmit is the audited escape hatch: a deliberate under-lock
// emission (say, journaling a state transition that must be atomic
// with the table change) documents itself with an allow annotation.
func (s *shard) allowedEmit(txn int64) {
	s.mu.Lock()
	rec := journal.Record{Txn: txn, Kind: journal.KindCommit}
	//hwlint:allow callbacklock -- fixture: deliberately journaled under the shard mutex
	s.jr.Emit(&rec)
	s.mu.Unlock()
}

// counters models the ring-internal pattern (journal.ringAtomics): a
// marked struct whose fields are reached only as method receivers, so
// every touch goes through sync/atomic.
//
// hwlint:atomics-only
type counters struct {
	emitted atomic.Uint64
	torn    atomic.Uint64
}

func (c *counters) inc()         { c.emitted.Add(1) }
func (c *counters) load() uint64 { return c.emitted.Load() }

type recorder struct {
	at counters
}

// goodStats goes through the methods, the only blessed access.
func (r *recorder) goodStats() uint64 {
	r.at.inc()
	return r.at.load()
}

// badStats copies the atomic field out directly — the race the atomics
// analyzer exists to catch at lint time.
func (r *recorder) badStats() atomic.Uint64 {
	return r.at.torn // want "field torn of counters touched directly"
}
