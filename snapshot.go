package hwtwbg

import (
	"time"

	"hwtwbg/internal/detect"
	"hwtwbg/internal/table"
)

// The snapshot detector is the manager's answer to
// the stop-the-world pause: instead of freezing every shard for the
// whole activation, it copies what each shard's lock table has to say
// about waiting into a reusable arena under only that shard's mutex —
// each held just long enough to copy — and runs the paper's Steps 1–3
// over the merged snapshot with
// no shard locks held at all. Because the copies are taken at
// different instants the merged view can be torn, so the algorithm's
// output is treated as a set of *candidates*: each resolution carries
// its cycle's edge evidence, which is re-verified against the live
// shards (under only the shards that cycle touches) before the TDR-1
// abort or TDR-2 repositioning is applied. Candidates whose evidence
// no longer holds are dropped and counted as false cycles. See
// validate.go for why a cycle that verifies live is always a real
// deadlock.
//
// The copy-out takes only what can carry an edge — each shard table's
// maintained set of resources with a queued waiter or a blocked
// conversion, whose waiting entries carry their transactions' lock
// counts for the victim cost (stamped when the request blocked) — so
// it costs what the contention costs, not what the lock table does. It
// is also incremental: every mutating mutex round bumps its shard's
// epoch counter, and a shard whose epoch is unchanged since the
// detector's previous copy is not recopied — its sub-snapshot is reused
// in place. The epoch is loaded without the shard mutex, so a copy
// decision can be one round stale; that only widens the tearing the
// validate-then-act replay already absorbs (DESIGN.md §13 states the
// argument in full).

// snapCopy summarizes one activation's copy phase. hold is the summed
// time under the shard mutexes, the part a skipped shard saves.
type snapCopy struct {
	acquire, maxHold, hold time.Duration
	dirty, skipped         int
}

// copySnapshot fills the snapshot for one activation: pick the dirty
// shards — epoch moved, or a record rewritten when the previous
// activation applied its resolutions to the snapshot — copy each under
// its own mutex, and merge. Caller holds detMu. Lock waits and holds
// are told apart by chaining two clock reads per shard (one after Lock,
// one after Unlock — the previous shard's post-unlock read doubles as
// this shard's pre-lock instant). The dirty scan before the first copy
// and the sorting and merging after the last run with no shard lock
// held and are part of producing the snapshot: the caller charges the
// whole call, less acquire, to Copy.
func (m *Manager) copySnapshot() snapCopy {
	var cp snapCopy
	m.snap.BeginRound(len(m.shards))
	dirty := m.dirtyScratch[:0]
	for i, s := range m.shards {
		if m.snap.ShardClean(i, s.epoch.load()) {
			cp.skipped++
		} else {
			dirty = append(dirty, i)
		}
	}
	m.dirtyScratch = dirty
	cp.dirty = len(dirty)
	if len(dirty) == 0 {
		return cp
	}
	prev := m.now()
	for _, i := range dirty {
		s := m.shards[i]
		s.mu.Lock()
		t1 := m.now()
		m.snap.CopyShard(s.tb, i, s.epoch.load())
		s.mu.Unlock()
		t2 := m.now()
		hold := time.Duration(t2 - t1)
		cp.acquire += time.Duration(t1 - prev)
		cp.maxHold = max(cp.maxHold, hold)
		cp.hold += hold
		prev = t2
	}
	for _, i := range dirty {
		m.snap.FinishShard(i)
	}
	m.snap.MergeShards(dirty)
	return cp
}

// detectSnapshot is one activation. Caller holds detMu.
func (m *Manager) detectSnapshot() Stats {
	start := m.now()
	cp := m.copySnapshot()
	copied := m.now()
	if hook := m.testHookAfterCopy; hook != nil {
		hook()
	}
	pre := m.auditPreSnapshot()
	res := m.snapDet.Run()
	vstart := m.now()
	out := m.applyResolutions(res.Resolutions)
	m.auditPostSnapshot(pre, res)
	end := m.now()

	rep := ActivationReport{
		Time: time.Unix(0, vstart),
		PhaseTotals: PhaseTotals{
			Acquire:  cp.acquire,
			Copy:     time.Duration(copied-start) - cp.acquire,
			Build:    res.BuildTime,
			Search:   res.SearchTime,
			Resolve:  res.ResolveTime,
			Validate: time.Duration(end - vstart),
		},
		Total:          time.Duration(end - start),
		MaxShardHold:   cp.maxHold,
		Vertices:       res.Vertices,
		Edges:          res.Edges,
		EdgeVisits:     res.EdgeVisits,
		CyclesSearched: res.CyclesSearched,
		Aborted:        len(out.aborted),
		Repositioned:   len(out.repositioned),
		Salvaged:       len(out.salvaged),
		FalseCycles:    out.falseCycles,
		Validations:    out.validations,
		ShardsCopied:   cp.dirty,
		ShardsSkipped:  cp.skipped,
	}
	return m.recordActivation(rep, &out)
}

// replayOutcome summarizes the live replay of one snapshot activation's
// resolutions.
type replayOutcome struct {
	aborted      []detect.Resolution // TDR-1 resolutions whose victim was aborted, in application order
	abortTS      []int64             // each aborted victim's end-record stamp (see abortVictim)
	repositioned []detect.Resolution // TDR-2 resolutions applied live
	salvaged     []TxnID             // victims that needed no action after all
	falseCycles  int
	validations  int
}

// replayScratch is the validate-then-act phase's storage, kept across
// activations under detMu like the detector's own arenas: the outcome's
// lists, the locked shard set, the confirmed TDR-1 resolutions, the
// live edges of the resource under validation and the live
// repositioning's AV/ST split. An outcome is consumed by
// recordActivation before Detect returns, so the next activation may
// overwrite it.
type replayScratch struct {
	out       replayOutcome
	idx       []uint32
	confirmed []int // indexes of the validated TDR-1 resolutions, ascending
	edges     []detect.CycleEdge
	av, st    []table.QueueEntry
}

// applyResolutions replays the snapshot detector's resolutions against
// the live shards, re-validating each one first. The replay reproduces
// the STW activation's order on an unchanged state, so the two
// detectors make identical decisions whenever the world happens to be
// quiescent:
//
//  1. discovery order — validate each cycle and apply TDR-2 queue
//     surgeries immediately (Step 2 repositions as it walks, and a
//     later cycle's evidence may assume an earlier repositioning);
//  2. reverse discovery order — abort the confirmed TDR-1 victims
//     (Step 3 processes its abortion list most recent first), skipping
//     any whose request a previous abort already granted (salvage);
//  3. discovery order — schedule each repositioned queue (Step 3's
//     change-list pass), waking the newly granted requests.
//
// Resolutions the snapshot's own Step 3 already salvaged need no live
// action (an earlier abort in the same activation unblocks the victim
// here exactly as it did in the snapshot). The outcome lives in
// m.replay until the next activation.
//
//hwlint:hotpath allocs=0
func (m *Manager) applyResolutions(rs []detect.Resolution) replayOutcome {
	sc := &m.replay
	out := replayOutcome{aborted: sc.out.aborted[:0], abortTS: sc.out.abortTS[:0], repositioned: sc.out.repositioned[:0], salvaged: sc.out.salvaged[:0]}
	sc.confirmed = sc.confirmed[:0]
	for i := range rs {
		r := &rs[i]
		if r.Salvaged {
			out.salvaged = append(out.salvaged, r.Victim)
			continue
		}
		sc.idx = m.cycleShards(sc.idx, r.Cycle)
		m.lockShards(sc.idx)
		out.validations++
		ok := m.cycleHolds(r.Cycle)
		if ok && r.TDR2 {
			ok = m.tdr2Holds(r)
			if ok {
				sh := m.shardFor(r.Resource)
				sc.av, sc.st = sh.tb.RepositionAVST(r.Resource, r.Victim, sc.av[:0], sc.st[:0])
				sh.epoch.bump()
			}
		}
		m.unlockShards(sc.idx)
		if !ok {
			out.falseCycles++
			continue
		}
		if r.TDR2 {
			out.repositioned = append(out.repositioned, *r)
		} else {
			sc.confirmed = append(sc.confirmed, i)
		}
	}
	for j := len(sc.confirmed) - 1; j >= 0; j-- {
		r := &rs[sc.confirmed[j]]
		if ts, ok := m.abortVictim(r); ok {
			out.aborted = append(out.aborted, *r)
			out.abortTS = append(out.abortTS, ts)
		} else {
			out.salvaged = append(out.salvaged, r.Victim)
		}
	}
	for i := range out.repositioned {
		rid := out.repositioned[i].Resource
		s := m.shardFor(rid)
		s.mu.Lock()
		s.wakeGrants(s.tb.ScheduleQueue(rid))
		s.epoch.bump()
		s.mu.Unlock()
	}
	sc.out = out
	return out
}

// waitResource returns the resource inducing the victim's incoming
// cycle edge — the resource the victim is blocked on, whose shard
// therefore also holds its waiter channel. Every cycle vertex has
// exactly one incoming cycle edge.
func waitResource(r *detect.Resolution) ResourceID {
	for _, e := range r.Cycle {
		if e.To == r.Victim {
			return e.Resource
		}
	}
	return ""
}

// abortVictim applies one confirmed TDR-1 resolution. Under the cycle's
// shard locks it checks the victim is still blocked (Step 3's salvage
// condition: an earlier abort in this same replay may have granted its
// request) and, if so, condemns it, removes it from the locked shards
// — which always include the one it is blocked in, so the cascaded
// grants and the victim's own wake-up happen atomically with the
// decision — and then sweeps the remaining shards one at a time for
// locks the victim holds elsewhere (the abortTables discipline: safe
// because an aborted transaction never blocks again, so the
// intermediate states cannot look like a deadlock). Reports whether the
// victim was actually aborted. The shard set is built in m.replay.idx.
//
// It also returns the stamp of the victim's abort record, read under
// the cycle's shard locks before any release, so the record sorts
// before every grant the abort causes; journalActivation writes it (the
// victim's woken owner journals nothing). Zero — no clock read — when
// the journal is off.
//
//hwlint:hotpath allocs=0
func (m *Manager) abortVictim(r *detect.Resolution) (int64, bool) {
	victim := r.Victim
	ws := m.shardFor(waitResource(r))
	m.replay.idx = m.cycleShards(m.replay.idx, r.Cycle)
	idx := m.replay.idx
	m.lockShards(idx)
	if !ws.tb.Blocked(victim) {
		m.unlockShards(idx)
		return 0, false
	}
	var ts int64
	if m.jr != nil {
		ts = m.now()
	}
	m.condemned.add(victim)
	for _, i := range idx {
		s := m.shards[i]
		s.wakeGrants(s.tb.Abort(victim))
		s.epoch.bump()
	}
	ws.wake(victim)
	m.unlockShards(idx)
	for i, s := range m.shards {
		if containsIdx(idx, uint32(i)) {
			continue
		}
		s.mu.Lock()
		// Only an actual removal dirties the shard; most of this sweep
		// finds nothing of the victim.
		if s.tb.HeldCount(victim) > 0 || s.tb.Blocked(victim) {
			s.wakeGrants(s.tb.Abort(victim))
			s.epoch.bump()
		}
		s.mu.Unlock()
	}
	return ts, true
}

// containsIdx reports whether the sorted index set holds i.
func containsIdx(idx []uint32, i uint32) bool {
	for _, v := range idx {
		if v == i {
			return true
		}
		if v > i {
			return false
		}
	}
	return false
}
