// Package callbacklock is the fixture for the callbacklock analyzer: a
// miniature shard with a journal ring, metrics, and waiter channels.
package callbacklock

import (
	"sync"

	"hwtwbg/journal"
	"hwtwbg/metrics"
)

type shard struct {
	mu sync.Mutex
	ch chan struct{}
}

type mgr struct {
	s    *shard
	jr   *journal.Ring
	rec  journal.Record
	hist metrics.Histogram
	cnt  metrics.Counter
}

// bad fires every forbidden operation between Lock and Unlock.
func (m *mgr) bad() {
	m.s.mu.Lock()
	m.cnt.Inc()          // the audited exception: one atomic add
	m.hist.Observe(1)    // want "metrics.Histogram.Observe while a shard mutex is held"
	m.jr.Emit(&m.rec)    // want "journal.Ring.Emit while a shard mutex is held"
	m.s.ch <- struct{}{} // want "blocking channel send while a shard mutex is held"
	m.s.mu.Unlock()
	m.hist.Observe(2) // fine: the mutex is released
	m.jr.Emit(&m.rec)
}

// errPath unlocks on the early-return branch; the fall-through is still
// under the lock, but both emissions come after their respective
// unlocks.
func (m *mgr) errPath(fail bool) {
	m.s.mu.Lock()
	if fail {
		m.s.mu.Unlock()
		m.jr.Emit(&m.rec)
		return
	}
	m.s.mu.Unlock()
	m.jr.Emit(&m.rec)
}

// stillHeld shows the early-return merge keeping the lock in the
// fall-through path.
func (m *mgr) stillHeld(fail bool) {
	m.s.mu.Lock()
	if fail {
		m.s.mu.Unlock()
		return
	}
	m.jr.Emit(&m.rec) // want "journal.Ring.Emit while a shard mutex is held"
	m.s.mu.Unlock()
}

// contended is the lock path's acquisition: TryLock takes a free
// mutex, and only a held one costs the branch (a clock read, then
// Lock). The analyzer knows TryLock as no acquisition, so it holds the
// mutex after the if through the branch's Lock alone; that is enough
// to report an observation seeded there.
func (m *mgr) contended() {
	if !m.s.mu.TryLock() {
		m.cnt.Inc()
		m.s.mu.Lock()
	}
	m.cnt.Inc()
	m.hist.Observe(5) // want "metrics.Histogram.Observe while a shard mutex is held"
	m.s.mu.Unlock()
	m.hist.Observe(6)
}

// wake is the shard waker's non-blocking token deposit: a send inside a
// select with a default clause cannot block and is allowed.
func (m *mgr) wake() {
	m.s.mu.Lock()
	select {
	case m.s.ch <- struct{}{}:
	default:
	}
	m.s.mu.Unlock()
}

// deferred holds the mutex to function end via defer.
func (m *mgr) deferred() {
	m.s.mu.Lock()
	defer m.s.mu.Unlock()
	m.hist.Observe(3) // want "metrics.Histogram.Observe while a shard mutex is held"
}

// allowed is the audited escape hatch.
func (m *mgr) allowed() {
	m.s.mu.Lock()
	//hwlint:allow callbacklock -- fixture: this observation is deliberate
	m.hist.Observe(4)
	m.s.mu.Unlock()
}
