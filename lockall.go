package hwtwbg

import (
	"context"
	"time"

	"hwtwbg/internal/table"
)

// LockRequest names one acquisition of a group passed to LockAll.
type LockRequest struct {
	Resource ResourceID
	Mode     Mode
}

// batchEnt is one entry of a batch's shard-sorted acquisition order.
type batchEnt struct {
	shard uint32 // owning shard index
	idx   int32  // index into the caller's request slice
}

// pendOutcome records what one table round did to one request, so the
// outcome can be reported (the shard's emission seam) after the shard
// mutex is released without re-probing the table.
type pendOutcome struct {
	idx int32
	res table.RequestResult
}

// batchScratch is LockAll's reusable sort and flush scratch, inlined
// into the Txn so steady-state batches allocate nothing.
type batchScratch struct {
	ord  []batchEnt // see order
	pend []pendOutcome
}

// LockAll acquires every lock in reqs, blocking as needed, and returns
// nil once all of them are granted. It is semantically a sequence of
// Lock calls in shard order — requests are sorted by owning shard
// (original order preserved within a shard), and each shard's run is
// granted or enqueued in a single mutex round, so a batch of K requests
// mapping to S shards costs S uncontended mutex acquisitions instead of
// K. Each request is still reported individually, through the same
// emission seam as the single-request path, so detector, audit and postmortem
// semantics are unchanged.
//
// Blocking is partial: the transaction parks on the first request a
// round fails to grant — leaving exactly one wait edge, preserving the
// paper's single-wait invariant (Lemma 4.1) — and the rest of the batch
// resumes after that grant. On error (abort, cancellation, close) the
// batch stops where it stands; locks granted by earlier rounds remain
// held by the transaction, exactly as with sequential Lock calls, and
// are released by its eventual Commit or Abort.
//
// Because acquisition order is shard order, not argument order, callers
// that interleave LockAll with single Lock calls on overlapping key
// sets should not rely on argument order for deadlock avoidance; the
// detector resolves whatever cycles arise either way.
//
// The budget is TestAllocationPins' group-acquisition gate made static:
// three sites are provable — the two batch-scratch growth appends
// (t.batch.ord / t.batch.pend, which grow to the batch high-water mark
// once and are reused thereafter) and the table's Resource first-touch
// literal.
//
//hwlint:hotpath allocs=3
func (t *Txn) LockAll(ctx context.Context, reqs []LockRequest) error {
	switch len(reqs) {
	case 0:
		return t.checkLive()
	case 1:
		return t.Lock(ctx, reqs[0].Resource, reqs[0].Mode)
	}
	m := t.m

	ord := t.batch.order(reqs, m.mask, len(m.shards))

	pos := 0
	for pos < len(ord) {
		// The run [pos, end) shares a shard. A mid-run block leaves pos
		// inside the run; the next iteration re-derives the run and takes
		// the shard mutex again — it was released across the wait.
		sIdx := ord[pos].shard
		end := pos + 1
		for end < len(ord) && ord[end].shard == sIdx {
			end++
		}
		s := m.shards[sIdx]
		// One clock read per round, as in Lock: it stamps the round
		// under the mutex, and only a contended mutex costs a read
		// before the wait for it.
		var start int64
		if !s.mu.TryLock() {
			start = m.now()
			s.mu.Lock()
		}
		s.met.mutexAcquires.Inc()
		if err := t.checkLive(); err != nil {
			s.mu.Unlock()
			return err
		}
		// Counter updates are tallied locally and applied in one Add per
		// counter after the round — the counters are atomic, so they need
		// neither the mutex nor one RMW per request.
		pend := t.batch.pend[:0]
		var blockedCh chan struct{}
		var applyErr error
		var tally requestTally
		for pos < end {
			e := ord[pos]
			rq := reqs[e.idx]
			res, err := s.tb.RequestHeld(t.id, rq.Resource, rq.Mode, t.held)
			if err != nil {
				applyErr = err
				break
			}
			t.noteShard(s)
			tally.note(res, rq.Mode)
			pend = append(pend, pendOutcome{idx: e.idx, res: res})
			pos++
			if !res.Granted {
				// First block ends the round: the remainder of the batch
				// waits with us, so the transaction has exactly one wait
				// edge at every observable point.
				blockedCh = getWaiter()
				s.waiters[t.id] = blockedCh
				break
			}
			// Counted at once, so a block later in this round is
			// stamped with the grants before it.
			t.noteGrant(res.Conversion)
		}
		var ts int64
		if len(pend) > 0 {
			ts = m.now()   // one stamp covers the whole batch round
			s.epoch.bump() // and so does one bump
			if start == 0 {
				start = ts
			}
		}
		s.mu.Unlock()
		s.met.count(&tally)
		t.batch.pend = pend
		t.flushBatch(s, reqs, pend, ts, time.Duration(ts-start))
		if applyErr != nil {
			return applyErr
		}
		if blockedCh != nil {
			p := pend[len(pend)-1]
			rq := reqs[p.idx]
			if err := t.waitGrant(ctx, s, blockedCh, start, ts, rq.Resource, rq.Mode, p.res.Conversion); err != nil {
				return err
			}
		}
	}
	return nil
}

// order returns reqs' entries sorted by (shard, original index) with a
// stable counting sort, O(len(reqs) + shards). The scratch holds three
// regions, so that one growth site serves them all: the keys in request
// order, one counter per shard (in its idx field) and the sorted order
// the keys are placed into, which is what is returned.
func (b *batchScratch) order(reqs []LockRequest, mask uint32, shards int) []batchEnt {
	n := len(reqs)
	buf := b.ord[:0]
	for range 2*n + shards {
		buf = append(buf, batchEnt{})
	}
	b.ord = buf
	keys, next, ord := buf[:n], buf[n:n+shards], buf[n+shards:]
	for i := range reqs {
		keys[i] = batchEnt{shard: shardIndex(reqs[i].Resource, mask), idx: int32(i)}
		next[keys[i].shard].idx++
	}
	start := int32(0)
	for s := range next {
		start, next[s].idx = start+next[s].idx, start
	}
	for _, e := range keys {
		ord[next[e.shard].idx] = e
		next[e.shard].idx++
	}
	return ord
}

// flushBatch reports one shard round of a batch through the shard's
// emission seam, in request order, after the shard mutex is released.
// Each request is reported individually, exactly as the single-request
// path reports it, so postmortems and differential replays cannot tell a
// batch from a run of single requests. Every record carries the round's
// stamp ts, and every grant the round's wait for the shard mutex. A
// round that requested nothing reports nothing, not even a begin.
func (t *Txn) flushBatch(s *shard, reqs []LockRequest, pend []pendOutcome, ts int64, elapsed time.Duration) {
	if len(pend) == 0 {
		return
	}
	t.journalBegin(ts)
	for _, p := range pend {
		rq := reqs[p.idx]
		if p.res.Granted {
			s.granted(t.id, rq.Resource, rq.Mode, ts, elapsed, 0, p.res.Conversion, false)
		} else {
			s.blocked(t.id, rq.Resource, rq.Mode, ts, p.res.QueueDepth, p.res.Conversion)
		}
	}
}
