// Package flatcombine is a fixture for two analyzers at once, built
// around a flat-combining drain loop (the manager itself has none):
// callbacklock proves a loop that holds the shard mutex does no
// observer work (journal emission, histogram observation) — that
// happens after the mutex is released — and lockorder proves
// lock-accumulating walks over shards ascend by index.
package flatcombine

import (
	"sync"
	"sync/atomic"

	"hwtwbg/journal"
	"hwtwbg/metrics"
)

type fcRequest struct {
	txn  int64
	done atomic.Uint32
}

type shard struct {
	mu   sync.Mutex
	fc   [8]atomic.Pointer[fcRequest]
	jr   *journal.Ring
	hist metrics.Histogram
	cnt  metrics.Counter
}

// goodDrain does table work and counter bumps only under the mutex,
// and its observer work after releasing it.
func (s *shard) goodDrain() {
	s.mu.Lock()
	for i := range s.fc {
		req := s.fc[i].Load()
		if req == nil {
			continue
		}
		s.fc[i].Store(nil)
		s.cnt.Inc() // audited exception: one atomic word
		req.done.Store(1)
	}
	s.mu.Unlock()
	rec := journal.Record{Kind: journal.KindGrant}
	s.hist.Observe(1) // requester side: the mutex is released
	s.jr.Emit(&rec)
}

// badDrain performs the requester's observer work inside the combiner,
// stalling every transaction hashed to the shard.
func (s *shard) badDrain() {
	s.mu.Lock()
	for i := range s.fc {
		req := s.fc[i].Load()
		if req == nil {
			continue
		}
		s.fc[i].Store(nil)
		rec := journal.Record{Txn: req.txn, Kind: journal.KindGrant}
		s.jr.Emit(&rec)   // want "journal.Ring.Emit while a shard mutex is held"
		s.hist.Observe(1) // want "metrics.Histogram.Observe while a shard mutex is held"
		req.done.Store(1)
	}
	s.mu.Unlock()
}

type manager struct{ shards []*shard }

// batchRuns is the shipped batch shape: requests are grouped into
// per-shard runs and each run locks and unlocks its shard within one
// iteration, so at most one shard mutex is ever held and the run order
// needs no proof.
func (m *manager) batchRuns(order []int) {
	for _, i := range order {
		s := m.shards[i]
		s.mu.Lock()
		s.cnt.Inc()
		s.mu.Unlock()
	}
}

// batchAccumulate locks every touched shard up front, driven by an
// arbitrary index set — nothing proves it ascending.
func (m *manager) batchAccumulate(touched []int) {
	for _, i := range touched {
		m.shards[i].mu.Lock() // want "ascending acquisition order is unproven"
	}
	for _, i := range touched {
		m.shards[i].mu.Unlock()
	}
}

// batchAscending ranges the shard slice itself while accumulating —
// ascending by construction, the one order every multi-shard locker
// agrees on.
func (m *manager) batchAscending() {
	for _, s := range m.shards {
		s.mu.Lock()
	}
	for i := len(m.shards) - 1; i >= 0; i-- {
		m.shards[i].mu.Unlock()
	}
}
