package hwtwbg

// The invariant auditor's attachment to the STW oracle's activations
// (see audit_on.go for the production detector's).

import (
	"hwtwbg/internal/audit"
	"hwtwbg/internal/detect"
	"hwtwbg/internal/table"
	"hwtwbg/internal/twbg"
)

// auditPreSTW captures the pre-activation state. The world is stopped,
// so merging every shard into one table yields a consistent view.
func (m *Manager) auditPreSTW() *auditState {
	if !m.opts.audit {
		return nil
	}
	snap := table.NewSnapshot()
	snap.BeginRound(len(m.shards))
	dirty := make([]int, len(m.shards))
	for i, s := range m.shards {
		snap.CopyShard(s.tb, i, s.epoch.load())
		snap.FinishShard(i)
		dirty[i] = i
	}
	snap.MergeShards(dirty)
	return &auditState{graph: twbg.Build(m.mt), clone: snap.ActiveTable()}
}

// auditPostSTW runs the checks with the world still stopped: the live
// tables must satisfy the queue invariants, every reported cycle must
// have been a genuine deadlock of the captured pre-state, and the live
// graph must now be cycle-free (Theorem 4.1).
func (m *Manager) auditPostSTW(pre *auditState, res detect.Result) {
	if pre == nil {
		return
	}
	vs := audit.CheckGraph(pre.graph)
	vs = append(vs, audit.CheckResolutions(pre.graph, pre.clone, res.Resolutions)...)
	vs = append(vs, audit.CheckTables(m.shardTables())...)
	vs = append(vs, audit.CheckAcyclic(m.mt)...)
	m.recordAudit(audit.Report{Detector: "stw", Violations: vs})
}
