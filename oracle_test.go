package hwtwbg

// Reference implementations for the differential suite, reachable only
// from test code: the stop-the-world activation (every shard frozen for
// the whole run of the paper's algorithm over the live tables — no
// snapshot, no validation) and the full-copy snapshot activation. The
// production detector (Manager.Detect: incremental copy-out, validate-
// then-act) must make byte-identical decisions to both on any quiesced
// state.

import (
	"time"

	"hwtwbg/internal/detect"
	"hwtwbg/internal/table"
)

// detectFullCopy is one production activation forced to recopy every
// shard: resetting the snapshot arena first leaves no sub-snapshot to
// reuse.
func detectFullCopy(m *Manager) Stats {
	m.detMu.Lock()
	m.snap.Reset()
	m.detMu.Unlock()
	return m.Detect()
}

// stwOracle runs stop-the-world activations against a manager's live
// shards through a detector bound to the merged multiTable.
type stwOracle struct {
	m   *Manager
	det *detect.Detector
}

func newSTWOracle(m *Manager) *stwOracle {
	cost := func(id TxnID) float64 { return float64(m.mt.heldCount(id) + 1) }
	return &stwOracle{m: m, det: detect.New(m.mt, detect.Config{Cost: cost, DisableTDR2: m.opts.DisableTDR2})}
}

// Detect is the stop-the-world counterpart of Manager.Detect: it takes
// every shard lock in index order, runs the paper's algorithm over the
// merged live table, applies the resolutions, and records the
// activation through the manager's own bookkeeping (stats, journal,
// OnVictim), so both sides of a differential run are read back
// the same way. The whole pause is reported as both Total and
// MaxShardHold: every shard is held for all of it.
func (o *stwOracle) Detect() Stats {
	m := o.m
	m.detMu.Lock()
	defer m.detMu.Unlock()
	if m.closed.Load() {
		return Stats{}
	}
	start := time.Now()
	m.stopTheWorld()
	acquired := time.Now()
	pre := m.auditPreSTW()
	res := o.det.Run()
	resolved := time.Now()
	// The victims' end records are stamped before any release, as
	// abortVictim stamps them.
	var out replayOutcome
	var ts int64
	if m.jr != nil {
		ts = m.now()
	}
	for _, v := range res.Aborted {
		out.abortTS = append(out.abortTS, ts)
		m.condemned.add(v)
		for _, s := range m.shards {
			s.wake(v)
		}
	}
	for _, g := range res.Granted {
		m.shardFor(g.Resource).wake(g.Txn)
	}
	m.auditPostSTW(pre, res)
	m.resumeTheWorld()
	now := time.Now()
	pause := now.Sub(start)

	rep := ActivationReport{
		Time: resolved,
		PhaseTotals: PhaseTotals{
			Acquire: acquired.Sub(start),
			Build:   res.BuildTime,
			Search:  res.SearchTime,
			Resolve: res.ResolveTime,
			Wake:    now.Sub(resolved),
		},
		Total:          pause,
		MaxShardHold:   pause,
		Vertices:       res.Vertices,
		Edges:          res.Edges,
		EdgeVisits:     res.EdgeVisits,
		CyclesSearched: res.CyclesSearched,
		Aborted:        len(res.Aborted),
		Repositioned:   len(res.Repositioned),
		Salvaged:       len(res.Salvaged),
	}
	// The detector's own result lists fix the decision order; a victim is
	// a junction of exactly one TDR-1 resolution, which carries its cycle.
	byVictim := make(map[TxnID]detect.Resolution, len(res.Resolutions))
	var repositioned []detect.Resolution
	for _, r := range res.Resolutions {
		if r.TDR2 {
			repositioned = append(repositioned, r)
		} else {
			byVictim[r.Victim] = r
		}
	}
	out.aborted = make([]detect.Resolution, len(res.Aborted))
	for i, v := range res.Aborted {
		out.aborted[i] = byVictim[v]
	}
	out.repositioned, out.salvaged = repositioned, res.Salvaged
	return m.recordActivation(rep, &out)
}

// The rest of detect.Table over the sharded tables — the mutating half
// only a detector running on the live shards needs. Like the read half
// in shard.go, every method requires the world stopped.

// Resource dispatches to the owning shard.
func (mt *multiTable) Resource(rid table.ResourceID) *table.Resource {
	return mt.shardTable(rid).Resource(rid)
}

// WaitingOn finds the (at most one) shard in which txn is blocked.
func (mt *multiTable) WaitingOn(txn table.TxnID) (table.ResourceID, Mode, bool) {
	for _, s := range mt.shards {
		if rid, bm, ok := s.tb.WaitingOn(txn); ok {
			return rid, bm, true
		}
	}
	return "", NL, false
}

// PeekAVST dispatches to the owning shard.
func (mt *multiTable) PeekAVST(rid table.ResourceID, j table.TxnID, av, st []table.QueueEntry) ([]table.QueueEntry, []table.QueueEntry) {
	return mt.shardTable(rid).PeekAVST(rid, j, av, st)
}

// RepositionAVST dispatches the TDR-2 queue surgery to the owning shard.
func (mt *multiTable) RepositionAVST(rid table.ResourceID, j table.TxnID, av, st []table.QueueEntry) ([]table.QueueEntry, []table.QueueEntry) {
	s := mt.shardFor(rid)
	s.epoch.bump()
	return s.tb.RepositionAVST(rid, j, av, st)
}

// Abort removes txn from every shard it touches, collecting the grants.
func (mt *multiTable) Abort(txn table.TxnID) []table.Grant {
	var grants []table.Grant
	for _, s := range mt.shards {
		if s.tb.HeldCount(txn) == 0 && !s.tb.Blocked(txn) {
			continue // nothing of txn here; keep the shard's epoch clean
		}
		gs := s.tb.Abort(txn)
		grants = append(grants, gs...)
		s.countGrants(gs)
		s.epoch.bump()
	}
	return grants
}

// ScheduleQueue dispatches to the owning shard.
func (mt *multiTable) ScheduleQueue(rid table.ResourceID) []table.Grant {
	s := mt.shardFor(rid)
	gs := s.tb.ScheduleQueue(rid)
	s.countGrants(gs)
	s.epoch.bump()
	return gs
}

// heldCount sums txn's holder entries across shards; the default
// victim-cost metric (locks held + 1) is priced with it.
func (mt *multiTable) heldCount(txn table.TxnID) int {
	n := 0
	for _, s := range mt.shards {
		n += s.tb.HeldCount(txn)
	}
	return n
}

func (mt *multiTable) shardFor(rid table.ResourceID) *shard {
	return mt.shards[shardIndex(rid, uint32(len(mt.shards)-1))]
}

func (mt *multiTable) shardTable(rid table.ResourceID) *table.Table {
	return mt.shardFor(rid).tb
}
