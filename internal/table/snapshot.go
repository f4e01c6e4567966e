package table

import (
	"cmp"
	"math/bits"
	"slices"

	"hwtwbg/internal/lock"
)

// Snapshot is a reusable deep copy of one or more lock tables, merged
// into a single *Table view. The sharded manager fills one per detector
// activation — each shard is copied under its own mutex — and the
// detector then runs over the merge with no shard locks held at all.
//
// Storage is split into per-shard sub-snapshots so the copy can be
// incremental: each source shard owns a private arena of Resource and
// fragment records plus the sorted id lists describing what it
// contributed last round. A shard whose mutation epoch is unchanged is
// skipped entirely — its records stay byte-for-byte in place, still
// wired into the merged table — and only dirty shards are recopied and
// re-merged (diffing the old and new id lists, so the merge cost is
// proportional to churn, not table size). Records are recycled through
// per-sub freelists, so a steady-state copy-out allocates (almost)
// nothing whether the round is incremental or full.
//
// A round is BeginRound, then per shard either ShardClean (skip) or
// CopyShard+FinishShard, then one MergeShards call with the dirty
// indexes. CopyShard for distinct indexes may run concurrently;
// everything else is serial. Resource identity is assumed disjoint
// between source tables (each resource lives in exactly one shard); a
// transaction whose locks span several has its held list merged.
//
// Detection runs over View, which restricts the resource iteration to
// resources that can contribute graph edges (see SnapView). Mutating
// the snapshot through the view (a detector applying its resolutions)
// marks it dirty, and the next BeginRound/Reset rebuilds everything
// from scratch — mutation breaks the sub-arena/merge invariants, and
// deadlock resolutions are rare enough that a one-round full recopy
// costs nothing in steady state.
type Snapshot struct {
	tb   *Table
	subs []*subSnapshot

	// stFree recycles merged txnState records (unbounded: holds at most
	// the peak live-transaction count, like the sub arenas).
	stFree []*txnState

	// affected is the per-merge scratch set of transactions whose merged
	// state must be rebuilt (every txn added to or removed from a dirty
	// shard this round).
	affected map[TxnID]struct{}

	// fragShards maps each transaction to the bitmask of sub indexes
	// holding a fragment for it, so rebuilding a merged state visits
	// only the shards that contribute. Maintained only while the shard
	// count fits a word (useMask); beyond that the rebuild scans all
	// subs.
	fragShards map[TxnID]uint64
	useMask    bool

	// active is the merged, id-sorted list of resources that can
	// contribute graph edges (queued waiters or blocked conversions).
	active []*Resource

	// mutated is set when the snapshot was modified through its view;
	// the next round invalidates every sub instead of reusing them.
	mutated bool

	view SnapView
}

// subSnapshot is one source shard's contribution: a private record
// arena plus the sorted contents lists from the current and previous
// rounds (the merge diffs them).
type subSnapshot struct {
	epoch uint64 // source shard mutation epoch at copy time
	valid bool   // a copy is present and reusable

	res   map[ResourceID]*Resource
	frags map[TxnID]*txnFrag

	rids, prevRids   []ResourceID
	txids, prevTxids []TxnID
	active           []*Resource

	resFree  []*Resource
	fragFree []*txnFrag
}

// txnFrag is one transaction's footprint within a single shard: the
// held resources (pointing at the sub's own records) and the wait, if
// the transaction is blocked in this shard.
type txnFrag struct {
	held      []*Resource
	wait      *Resource
	waitMode  lock.Mode
	upgrading bool
}

// NewSnapshot returns an empty snapshot.
func NewSnapshot() *Snapshot {
	s := &Snapshot{
		tb:         New(),
		affected:   make(map[TxnID]struct{}),
		fragShards: make(map[TxnID]uint64),
		useMask:    true,
	}
	s.view.s = s
	return s
}

// Table returns the merged table view. It implements everything a
// detector needs (including mutation: aborts and repositionings applied
// to a snapshot stay in the snapshot). The pointer is stable across
// Reset, so a detect.Detector can be bound to it once.
func (s *Snapshot) Table() *Table { return s.tb }

// View returns the detection-facing view of the merged table. The
// pointer is stable across rounds.
func (s *Snapshot) View() *SnapView { return &s.view }

// Reset forgets every copy, so the next round recopies every shard,
// keeping every arena and slice capacity for reuse.
func (s *Snapshot) Reset() { s.invalidate() }

// invalidate forgets every copy: all records are retired to their
// freelists (capacities preserved) and the merged table is emptied.
func (s *Snapshot) invalidate() {
	for _, sub := range s.subs {
		for rid, r := range sub.res {
			delete(sub.res, rid)
			sub.retireRes(r)
		}
		for id, f := range sub.frags {
			delete(sub.frags, id)
			sub.retireFrag(f)
		}
		sub.rids = sub.rids[:0]
		sub.prevRids = sub.prevRids[:0]
		sub.txids = sub.txids[:0]
		sub.prevTxids = sub.prevTxids[:0]
		sub.active = sub.active[:0]
		sub.valid = false
		sub.epoch = 0
	}
	for id, st := range s.tb.txns {
		delete(s.tb.txns, id)
		s.freeState(st)
	}
	clear(s.tb.resources)
	clear(s.fragShards)
	clear(s.affected)
	s.tb.resCache = s.tb.resCache[:0]
	s.tb.resDirty = true
	// The detector's view mutators retire records it deletes into the
	// merged table's own freelists; those records belong to the sub
	// arenas, so drop the aliases.
	s.tb.resFree = s.tb.resFree[:0]
	s.tb.stFree = s.tb.stFree[:0]
	s.active = s.active[:0]
	s.mutated = false
}

// BeginRound prepares an indexed round over n source shards. If the
// previous round's snapshot was mutated (a detector applied
// resolutions to it), every sub is invalidated so the whole table is
// recopied.
func (s *Snapshot) BeginRound(n int) {
	s.ensureSubs(n)
	if s.mutated {
		s.invalidate()
	}
}

func (s *Snapshot) ensureSubs(n int) {
	for len(s.subs) < n {
		s.subs = append(s.subs, &subSnapshot{
			res:   make(map[ResourceID]*Resource),
			frags: make(map[TxnID]*txnFrag),
		})
	}
	s.useMask = len(s.subs) <= 64
}

// ShardClean reports whether sub i holds a reusable copy taken at
// exactly the given source epoch. A clean shard needs no CopyShard,
// FinishShard, or merge attention this round.
func (s *Snapshot) ShardClean(i int, epoch uint64) bool {
	sub := s.subs[i]
	return sub.valid && sub.epoch == epoch
}

// ShardHadWaiters reports whether sub i's last copy contributed any
// active resources (queued waiters or blocked conversions) — the
// pre-filter deciding whether a clean shard can possibly affect the
// graph.
func (s *Snapshot) ShardHadWaiters(i int) bool {
	return len(s.subs[i].active) > 0
}

// CopyShard deep-copies table t into sub i, recording the source's
// mutation epoch. The caller must hold t's mutex for the duration;
// calls for distinct indexes may run concurrently (each touches only
// its own sub). FinishShard(i) must follow before MergeShards sees i.
func (s *Snapshot) CopyShard(t *Table, i int, epoch uint64) {
	sub := s.subs[i]
	sub.prevRids, sub.rids = sub.rids, sub.prevRids[:0]
	sub.prevTxids, sub.txids = sub.txids, sub.prevTxids[:0]
	sub.active = sub.active[:0]
	for rid, r := range t.resources {
		nr := sub.res[rid]
		if nr == nil {
			nr = sub.allocRes()
			sub.res[rid] = nr
		}
		nr.id = rid
		nr.total = r.total
		nr.holders = append(nr.holders[:0], r.holders...)
		nr.queue = append(nr.queue[:0], r.queue...)
		sub.rids = append(sub.rids, rid)
		if len(nr.queue) > 0 || nr.blockedLen() > 0 {
			sub.active = append(sub.active, nr)
		}
	}
	for id, st := range t.txns {
		if len(st.held) == 0 && st.waitingOn == nil {
			continue
		}
		f := sub.frags[id]
		if f == nil {
			f = sub.allocFrag()
			sub.frags[id] = f
		}
		f.held = f.held[:0]
		for _, r := range st.held {
			f.held = append(f.held, sub.res[r.id])
		}
		if st.waitingOn != nil {
			f.wait = sub.res[st.waitingOn.id]
			f.waitMode = st.waitMode
			f.upgrading = st.upgrading
		} else {
			f.wait = nil
			f.waitMode = lock.NL
			f.upgrading = false
		}
		sub.txids = append(sub.txids, id)
	}
	sub.epoch = epoch
	sub.valid = true
}

// FinishShard sorts sub i's contents lists. It is split from CopyShard
// so the sorting happens outside the source shard's mutex.
func (s *Snapshot) FinishShard(i int) {
	sub := s.subs[i]
	slices.Sort(sub.rids)
	slices.Sort(sub.txids)
	slices.SortFunc(sub.active, func(a, b *Resource) int { return cmp.Compare(a.id, b.id) })
}

// MergeShards folds the listed dirty subs into the merged table:
// resources and fragments that disappeared since the sub's previous
// copy are retired, new ones wired in, and the merged wait/hold state
// of every transaction touched by a dirty shard is rebuilt (reading the
// clean shards' fragments in place). Merge cost is proportional to the
// dirty shards' content, not the table.
func (s *Snapshot) MergeShards(dirty []int) {
	if len(dirty) == 0 {
		return
	}
	clear(s.affected)
	setChanged := false
	for _, i := range dirty {
		sub := s.subs[i]
		// Resource diff: prevRids and rids are sorted.
		a, b := sub.prevRids, sub.rids
		x, y := 0, 0
		for x < len(a) || y < len(b) {
			switch {
			case y >= len(b) || (x < len(a) && a[x] < b[y]):
				rid := a[x]
				x++
				if r := sub.res[rid]; r != nil {
					delete(sub.res, rid)
					delete(s.tb.resources, rid)
					sub.retireRes(r)
				}
				setChanged = true
			case x >= len(a) || b[y] < a[x]:
				rid := b[y]
				y++
				s.tb.resources[rid] = sub.res[rid]
				setChanged = true
			default:
				// Unchanged id: the record was rewritten in place and the
				// merged table already points at it.
				x++
				y++
			}
		}
		// Fragment diff: every txn present in either round is affected.
		bit := uint64(1) << uint(i&63)
		a2, b2 := sub.prevTxids, sub.txids
		x, y = 0, 0
		for x < len(a2) || y < len(b2) {
			switch {
			case y >= len(b2) || (x < len(a2) && a2[x] < b2[y]):
				id := a2[x]
				x++
				if f := sub.frags[id]; f != nil {
					delete(sub.frags, id)
					sub.retireFrag(f)
				}
				if s.useMask {
					if m := s.fragShards[id] &^ bit; m == 0 {
						delete(s.fragShards, id)
					} else {
						s.fragShards[id] = m
					}
				}
				s.affected[id] = struct{}{}
			case x >= len(a2) || b2[y] < a2[x]:
				id := b2[y]
				y++
				if s.useMask {
					s.fragShards[id] |= bit
				}
				s.affected[id] = struct{}{}
			default:
				s.affected[a2[x]] = struct{}{}
				x++
				y++
			}
		}
	}
	if setChanged {
		s.tb.resDirty = true
	}
	for id := range s.affected {
		s.rebuildTxn(id)
	}
	s.rebuildActive()
}

// rebuildTxn reassembles the merged wait/hold state of one transaction
// from its per-shard fragments, in ascending sub index order — the same
// order a sequential full copy visits shards, so the merged held list
// and the "first wait seen" tie-break (a torn multi-shard copy can show
// one transaction waiting in two shards) are byte-identical to a full
// copy of the same sub contents.
func (s *Snapshot) rebuildTxn(id TxnID) {
	st := s.tb.txns[id]
	if st != nil {
		st.held = st.held[:0]
		st.waitingOn = nil
		st.waitMode = lock.NL
		st.upgrading = false
	}
	add := func(f *txnFrag) {
		if st == nil {
			st = s.allocState()
			s.tb.txns[id] = st
		}
		st.held = append(st.held, f.held...)
		if f.wait != nil && st.waitingOn == nil {
			st.waitingOn = f.wait
			st.waitMode = f.waitMode
			st.upgrading = f.upgrading
		}
	}
	if s.useMask {
		for m := s.fragShards[id]; m != 0; {
			i := bits.TrailingZeros64(m)
			m &^= 1 << uint(i)
			if f := s.subs[i].frags[id]; f != nil {
				add(f)
			}
		}
	} else {
		for _, sub := range s.subs {
			if !sub.valid {
				continue
			}
			if f := sub.frags[id]; f != nil {
				add(f)
			}
		}
	}
	if st != nil && len(st.held) == 0 && st.waitingOn == nil {
		delete(s.tb.txns, id)
		s.freeState(st)
	}
}

// rebuildActive reassembles the merged id-sorted active-resource list
// from the per-sub lists.
func (s *Snapshot) rebuildActive() {
	s.active = s.active[:0]
	for _, sub := range s.subs {
		if !sub.valid {
			continue
		}
		s.active = append(s.active, sub.active...)
	}
	slices.SortFunc(s.active, func(a, b *Resource) int { return cmp.Compare(a.id, b.id) })
}

func (s *Snapshot) allocState() *txnState {
	if n := len(s.stFree); n > 0 {
		st := s.stFree[n-1]
		s.stFree = s.stFree[:n-1]
		return st
	}
	return &txnState{}
}

func (s *Snapshot) freeState(st *txnState) {
	st.held = st.held[:0]
	st.waitingOn = nil
	st.waitMode = lock.NL
	st.upgrading = false
	s.stFree = append(s.stFree, st)
}

func (sub *subSnapshot) allocRes() *Resource {
	if n := len(sub.resFree); n > 0 {
		r := sub.resFree[n-1]
		sub.resFree = sub.resFree[:n-1]
		return r
	}
	return &Resource{}
}

func (sub *subSnapshot) retireRes(r *Resource) {
	r.id = ""
	r.total = lock.NL
	r.holders = r.holders[:0]
	r.queue = r.queue[:0]
	sub.resFree = append(sub.resFree, r)
}

func (sub *subSnapshot) allocFrag() *txnFrag {
	if n := len(sub.fragFree); n > 0 {
		f := sub.fragFree[n-1]
		sub.fragFree = sub.fragFree[:n-1]
		return f
	}
	return &txnFrag{}
}

func (sub *subSnapshot) retireFrag(f *txnFrag) {
	f.held = f.held[:0]
	f.wait = nil
	f.waitMode = lock.NL
	f.upgrading = false
	sub.fragFree = append(sub.fragFree, f)
}

// SnapView is the detection-facing view of a snapshot: reads delegate
// to the merged table, but EachResource iterates only the *active*
// resources — those with a queued waiter or a blocked conversion.
// Resources with neither contribute no vertex and no edge to the
// H/W-TWBG (every W-edge needs a queue entry; every H-edge needs a
// blocked party, and NL is compatible with every mode), so skipping
// them is exactly output-preserving while making the build scan
// proportional to contention rather than table size.
//
// Mutations (a detector applying TDR-1/TDR-2 to its own input) are
// forwarded to the merged table and mark the snapshot mutated, forcing
// the next round to recopy every shard — the sub-arena bookkeeping no
// longer matches the merged table after surgery.
type SnapView struct {
	s *Snapshot
}

// EachResource calls f for every active resource in id order, stopping
// if f returns false.
func (v *SnapView) EachResource(f func(*Resource) bool) {
	for _, r := range v.s.active {
		if !f(r) {
			return
		}
	}
}

// Resource returns the merged table entry for rid, or nil.
func (v *SnapView) Resource(rid ResourceID) *Resource { return v.s.tb.Resource(rid) }

// WaitingOn reports the merged wait state of txn.
func (v *SnapView) WaitingOn(txn TxnID) (ResourceID, lock.Mode, bool) {
	return v.s.tb.WaitingOn(txn)
}

// PeekAVST delegates to the merged table.
func (v *SnapView) PeekAVST(rid ResourceID, j TxnID) (av, st []QueueEntry) {
	return v.s.tb.PeekAVST(rid, j)
}

// RepositionAVST applies TDR-2 queue surgery to the snapshot and marks
// it mutated.
func (v *SnapView) RepositionAVST(rid ResourceID, j TxnID) (av, st []QueueEntry) {
	v.s.mutated = true
	return v.s.tb.RepositionAVST(rid, j)
}

// Abort applies a TDR-1 abort to the snapshot and marks it mutated.
func (v *SnapView) Abort(txn TxnID) []Grant {
	v.s.mutated = true
	return v.s.tb.Abort(txn)
}

// ScheduleQueue reschedules a queue in the snapshot and marks it
// mutated.
func (v *SnapView) ScheduleQueue(rid ResourceID) []Grant {
	v.s.mutated = true
	return v.s.tb.ScheduleQueue(rid)
}
