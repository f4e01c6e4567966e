//go:build invariants

package hwtwbg

// This file is the runtime invariant auditor's attachment to the
// manager, compiled only under the `invariants` build tag (and inert
// even then unless the test hook Options.audit is set). Each detector
// activation is
// bracketed: the pre hook captures the activation's input state — the
// snapshot arena — and the post hook re-derives the paper's properties
// from that capture plus the detector's reported resolutions (see
// internal/audit for what is checked and which theorem each check
// mechanizes). Audited activations are slower and report inflated
// Validate phase times; that is the price of a debug build.

import (
	"hwtwbg/internal/audit"
	"hwtwbg/internal/detect"
	"hwtwbg/internal/table"
	"hwtwbg/internal/twbg"
)

// auditState is the pre-activation evidence the post-checks verify
// against: the H/W-TWBG rebuilt independently by the ECR rules, and a
// private copy of the table state for the Definition-1 oracle.
type auditState struct {
	graph *twbg.Graph
	clone *table.Table
}

// auditPreSnapshot captures the snapshot the algorithm is about to run
// over (after the copy-out and any test hook). The resolution checks
// judge the detector against its actual input — the possibly torn
// snapshot — not the live shards; live divergence is validate-then-
// act's concern, exercised separately. That input is the active-only
// copy, so the graph and the oracle's clone are built from the same
// projection the detector sees; that leaving the inactive resources out
// preserves the output is checked elsewhere — by the STW oracle over
// the live multiTable in the three-way differential, and by
// internal/table's TestActiveCopyEquivalence.
func (m *Manager) auditPreSnapshot() *auditState {
	if !m.opts.audit {
		return nil
	}
	tb := m.snap.ActiveTable()
	return &auditState{graph: twbg.Build(tb), clone: tb.Clone()}
}

// auditPostSnapshot runs after the live replay. The snapshot-side
// checks are lock-free: Run applied every resolution to the snapshot
// table itself, so it must be cycle-free now no matter what the live
// shards did meanwhile. The live tables' structural invariants need a
// consistent cross-shard view, so the auditor briefly stops the world —
// a stall the snapshot detector otherwise never causes, acceptable in
// an invariants build.
func (m *Manager) auditPostSnapshot(pre *auditState, res detect.Result) {
	if pre == nil {
		return
	}
	vs := audit.CheckGraph(pre.graph)
	vs = append(vs, audit.CheckResolutions(pre.graph, pre.clone, res.Resolutions)...)
	vs = append(vs, audit.CheckAcyclic(m.snap.ActiveTable())...)
	m.stopTheWorld()
	vs = append(vs, audit.CheckTables(m.shardTables())...)
	m.resumeTheWorld()
	m.recordAudit("snapshot", vs)
}

// shardTables collects the live shard tables; the caller must have the
// world stopped.
func (m *Manager) shardTables() []*table.Table {
	tbs := make([]*table.Table, len(m.shards))
	for i, s := range m.shards {
		tbs[i] = s.tb
	}
	return tbs
}

// recordAudit appends one activation's report to the bounded ring.
func (m *Manager) recordAudit(detector string, vs []audit.Violation) {
	m.mu.Lock()
	m.auditRuns++
	m.auditReports = append(m.auditReports, audit.Report{Seq: m.auditRuns, Detector: detector, Violations: vs})
	if len(m.auditReports) > auditReportCap {
		m.auditReports = m.auditReports[len(m.auditReports)-auditReportCap:]
	}
	m.mu.Unlock()
}
