// Package shardepoch is the fixture for the atomics analyzer applied
// to the shard mutation epoch: the counter the incremental snapshot's
// skip decision reads without the shard mutex, so every touch must go
// through its atomic methods — a plain load or store would be a data
// race against the detector and is exactly what the analyzer bans.
package shardepoch

import (
	"sync"
	"sync/atomic"
)

// shardEpoch mirrors the lock manager's per-shard mutation counter.
//
// hwlint:atomics-only — the counter may only be touched via its methods.
type shardEpoch struct {
	v atomic.Uint64
}

func (e *shardEpoch) bump()        { e.v.Add(1) }
func (e *shardEpoch) load() uint64 { return e.v.Load() }

// shard is a miniature of the real shard: the epoch rides next to the
// mutex that guards the table it versions.
type shard struct {
	mu    sync.Mutex
	held  int
	epoch shardEpoch
}

// grant is the blessed mutation shape: table change and epoch bump both
// under the owning shard's mutex, the bump through the method.
func (s *shard) grant() {
	s.mu.Lock()
	s.held++
	s.epoch.bump()
	s.mu.Unlock()
}

// skipDecision is the blessed unlocked read: the detector loads the
// epoch through the method, without the mutex, tolerating staleness.
func skipDecision(s *shard, seen uint64) bool {
	return s.epoch.load() == seen
}

// bad touches the counter's field directly: a struct copy (which tears
// the atomic out from under concurrent bumps), an address-take that
// lets it escape the method surface, and a zeroing store that rewinds
// the version history the detector keys its reuse on.
func bad(s *shard) uint64 {
	e := s.epoch.v  // want "field v of shardEpoch touched directly"
	p := &s.epoch.v // want "field v of shardEpoch touched directly"
	_ = p
	s.mu.Lock()
	s.epoch.v = atomic.Uint64{} // want "field v of shardEpoch touched directly"
	s.mu.Unlock()
	return e.Load()
}
