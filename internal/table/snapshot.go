package table

import (
	"cmp"
	"slices"

	"hwtwbg/internal/lock"
)

// Snapshot is a reusable copy of the part of one or more lock tables
// that can carry a graph edge, merged into a single *Table view. The
// sharded manager fills one per detector activation — each shard is
// copied under its own mutex — and the detector then runs over the
// merge with no shard locks held at all.
//
// ECR 1–3 draw edges only at resources with a queued waiter or a
// blocked conversion, so that is all a copy takes: each source table
// maintains that active set (Table.active), and CopyShard copies its
// Resource records. Everything else — merged wait/hold state, the
// id-sorted iteration order, the victim price — is derived from those
// records: a waiting entry carries the number of locks its transaction
// held when it blocked (HolderEntry.Held), and every transaction a
// detector prices waits. A copy therefore costs what the contention
// costs, not what the lock table does — nothing in it scales with the
// transactions or the locks of a shard.
//
// Storage is split into per-shard sub-snapshots so the copy can be
// incremental: a shard whose mutation epoch is unchanged is skipped
// entirely — its records stay in place and are merged again as they
// are — and only dirty shards are recopied. Records are recycled
// through per-sub freelists, so a steady-state copy-out allocates
// (almost) nothing whether the round is incremental or full.
//
// A round is BeginRound, then per shard either ShardClean (skip) or
// CopyShard+FinishShard, then one MergeShards call with the dirty
// indexes. Resource identity is assumed disjoint between source tables
// (each resource lives in exactly one shard); a transaction whose locks
// span several has its held list merged.
//
// Detection runs over View. A detector applying its resolutions to the
// snapshot through the view rewrites records in place; the subs owning
// those records stop being clean, so the next round recopies them — and
// only them.
type Snapshot struct {
	tb   *Table
	subs []*subSnapshot

	// stFree recycles merged txnState records (unbounded: holds at most
	// the peak count of transactions at active resources).
	stFree []*txnState

	view SnapView
}

// subSnapshot is one source shard's contribution.
type subSnapshot struct {
	epoch uint64 // source shard mutation epoch at copy time
	valid bool   // a copy is present, unmodified, and reusable

	recs []*Resource // copies of the source's active resources; id-sorted once finished
	free []*Resource
}

// NewSnapshot returns an empty snapshot.
func NewSnapshot() *Snapshot {
	s := &Snapshot{tb: New()}
	s.view.s = s
	return s
}

// ActiveTable returns the merged table: the active resources of every
// copied shard and the transactions holding or waiting at them, with
// held lists restricted to those resources — so its Held and HeldCount
// answer for active resources only, and a victim is priced with
// Snapshot.HeldCount instead (the root package's
// TestDefaultCostCountsInactiveLocks). It implements everything a
// detector needs (including mutation: aborts and repositionings applied
// to a snapshot stay in the snapshot). The pointer is stable across
// Reset, so a detect.Detector can be bound to it once.
func (s *Snapshot) ActiveTable() *Table { return s.tb }

// View returns the detection-facing view of the merged table. The
// pointer is stable across rounds.
func (s *Snapshot) View() *SnapView { return &s.view }

// HeldCount returns the victim price of txn: the stamp of its wait in
// the merged table (HolderEntry.Held), which counts its locks across
// every source, inactive resources included. It is 0 for a transaction
// that does not wait; no detector prices one.
func (s *Snapshot) HeldCount(txn TxnID) int { return s.tb.WaitHeld(txn) }

// Reset forgets every copy, so the next round recopies every shard,
// keeping every arena and slice capacity for reuse.
func (s *Snapshot) Reset() {
	for _, sub := range s.subs {
		sub.retire()
		sub.valid = false
	}
	s.clearMerged()
}

// clearMerged empties the merged table, recycling its transaction
// states.
func (s *Snapshot) clearMerged() {
	tb := s.tb
	for _, st := range tb.txns {
		s.freeState(st)
	}
	clear(tb.txns)
	clear(tb.resources)
	tb.active = tb.active[:0]
	tb.resDirty = true
	// A detector's aborts retire what they delete into the merged
	// table's own freelists. The transaction states are ours to reuse;
	// the Resource records belong to the sub arenas, so drop the aliases.
	s.stFree = append(s.stFree, tb.stFree...)
	tb.stFree = tb.stFree[:0]
	tb.resFree = tb.resFree[:0]
}

// BeginRound prepares an indexed round over n source shards.
func (s *Snapshot) BeginRound(n int) {
	for len(s.subs) < n {
		s.subs = append(s.subs, &subSnapshot{})
	}
}

// ShardClean reports whether sub i holds a reusable copy taken at
// exactly the given source epoch. A clean shard needs no CopyShard,
// FinishShard, or merge attention this round.
func (s *Snapshot) ShardClean(i int, epoch uint64) bool {
	sub := s.subs[i]
	return sub.valid && sub.epoch == epoch
}

// CopyShard copies table t's active set into sub i, recording the
// source's mutation epoch: O(entries at active resources), stamps
// included. The caller must hold t's mutex for the duration.
// FinishShard(i) must follow before MergeShards sees i.
func (s *Snapshot) CopyShard(t *Table, i int, epoch uint64) {
	sub := s.subs[i]
	sub.retire()
	for _, r := range t.active {
		nr := sub.allocRes()
		nr.id = r.id
		nr.total = r.total
		nr.holders = append(nr.holders, r.holders...)
		nr.queue = append(nr.queue, r.queue...)
		sub.recs = append(sub.recs, nr)
	}
	sub.epoch = epoch
	sub.valid = true
}

// FinishShard sorts sub i's records by id, which is how touch finds a
// record's owner. It is split from CopyShard so the sorting happens
// outside the source shard's mutex.
func (s *Snapshot) FinishShard(i int) {
	slices.SortFunc(s.subs[i].recs, compareID)
}

func compareID(a, b *Resource) int { return cmp.Compare(a.id, b.id) }

// MergeShards rebuilds the merged table after the listed dirty subs
// were recopied: every valid sub's records, clean or fresh, are wired
// in, and each transaction's wait/hold state is reassembled from the
// holder and queue entries that name it. Subs are visited in ascending
// index order, so the merged held lists and the "first wait seen"
// tie-break (a torn multi-shard copy can show one transaction waiting
// in two shards) do not depend on which shards happened to be dirty.
// The cost is proportional to the entries at active resources — the
// size of the graph Step 1 is about to build from them.
func (s *Snapshot) MergeShards(dirty []int) {
	if len(dirty) == 0 {
		return
	}
	s.clearMerged()
	tb := s.tb
	for _, sub := range s.subs {
		if !sub.valid {
			continue
		}
		for _, r := range sub.recs {
			tb.resources[r.id] = r
			tb.active = append(tb.active, r)
			for _, h := range r.holders {
				st := s.state(h.Txn)
				st.held = append(st.held, r)
				if h.Blocked != lock.NL && st.waitingOn == nil {
					st.waitingOn, st.waitMode, st.upgrading = r, h.Blocked, true
				}
			}
			for _, q := range r.queue {
				if st := s.state(q.Txn); st.waitingOn == nil {
					st.waitingOn, st.waitMode, st.upgrading = r, q.Blocked, false
				}
			}
		}
	}
	// The merged active set doubles as the view's iteration order, which
	// must be by resource id across shards.
	slices.SortFunc(tb.active, compareID)
	for i, r := range tb.active {
		r.activeIdx = i + 1
	}
}

// state returns txn's merged state, creating it on first mention.
func (s *Snapshot) state(txn TxnID) *txnState {
	st := s.tb.txns[txn]
	if st == nil {
		if n := len(s.stFree); n > 0 {
			st = s.stFree[n-1]
			s.stFree = s.stFree[:n-1]
		} else {
			st = &txnState{}
		}
		s.tb.txns[txn] = st
	}
	return st
}

func (s *Snapshot) freeState(st *txnState) {
	st.held = st.held[:0]
	st.waitingOn = nil
	st.waitMode = lock.NL
	st.upgrading = false
	s.stFree = append(s.stFree, st)
}

// touch marks the sub owning record r as needing a recopy: the caller
// is about to rewrite r in place. Subs already marked are skipped —
// an earlier rewrite may have blanked one of their ids, and a sub need
// not be marked twice.
func (s *Snapshot) touch(r *Resource) {
	for _, sub := range s.subs {
		if !sub.valid {
			continue
		}
		if i, ok := slices.BinarySearchFunc(sub.recs, r, compareID); ok && sub.recs[i] == r { //hwlint:allow allocbudget -- slices.BinarySearchFunc searches in place but is not in the audited table (only BinarySearch is)
			sub.valid = false
			return
		}
	}
}

// retire moves every record of the sub to its freelist, capacities
// preserved.
func (sub *subSnapshot) retire() {
	sub.free = append(sub.free, sub.recs...)
	sub.recs = sub.recs[:0]
}

func (sub *subSnapshot) allocRes() *Resource {
	if n := len(sub.free); n > 0 {
		r := sub.free[n-1]
		sub.free = sub.free[:n-1]
		r.holders = r.holders[:0]
		r.queue = r.queue[:0]
		return r
	}
	return &Resource{}
}

// SnapView is the detection-facing view of a snapshot: reads delegate
// to the merged table, and EachResource iterates its resources — all of
// them active, by construction of the copy — in id order. A resource
// with neither a queued waiter nor a blocked conversion contributes no
// vertex and no edge to the H/W-TWBG (every W-edge needs a queue entry;
// every H-edge needs a blocked party, and NL is compatible with every
// mode), so leaving it out of the copy is exactly output-preserving.
//
// Mutations (a detector applying TDR-1/TDR-2 to its own input) are
// forwarded to the merged table after marking the subs whose records
// they rewrite, so the next round recopies those shards.
type SnapView struct {
	s *Snapshot
}

// EachResource calls f for every active resource in id order, stopping
// if f returns false.
func (v *SnapView) EachResource(f func(*Resource) bool) {
	for _, r := range v.s.tb.active {
		if !f(r) {
			return
		}
	}
}

// Resource returns the merged table entry for rid, or nil.
func (v *SnapView) Resource(rid ResourceID) *Resource { return v.s.tb.Resource(rid) }

// PeekAVST delegates to the merged table.
func (v *SnapView) PeekAVST(rid ResourceID, j TxnID, av, st []QueueEntry) ([]QueueEntry, []QueueEntry) {
	return v.s.tb.PeekAVST(rid, j, av, st)
}

// RepositionAVST applies TDR-2 queue surgery to the snapshot.
func (v *SnapView) RepositionAVST(rid ResourceID, j TxnID, av, st []QueueEntry) ([]QueueEntry, []QueueEntry) {
	v.touchID(rid)
	return v.s.tb.RepositionAVST(rid, j, av, st)
}

// Abort applies a TDR-1 abort to the snapshot. It rewrites every record
// the victim holds or waits at.
func (v *SnapView) Abort(txn TxnID) []Grant {
	if st := v.s.tb.txns[txn]; st != nil {
		for _, r := range st.held {
			v.s.touch(r)
		}
		if st.waitingOn != nil {
			v.s.touch(st.waitingOn)
		}
	}
	return v.s.tb.Abort(txn)
}

// ScheduleQueue reschedules a queue in the snapshot.
func (v *SnapView) ScheduleQueue(rid ResourceID) []Grant {
	v.touchID(rid)
	return v.s.tb.ScheduleQueue(rid)
}

func (v *SnapView) touchID(rid ResourceID) {
	if r := v.s.tb.resources[rid]; r != nil {
		v.s.touch(r)
	}
}
