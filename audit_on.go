package hwtwbg

// This file is the runtime invariant auditor's attachment to the
// manager. It is ordinary code in every build, inert unless the test
// hook Options.audit is set — production managers cannot set it, so
// their activations pay only the nil checks below. Each detector
// activation is bracketed: the pre hook captures the activation's input
// state — the snapshot arena — and the post hook re-derives the paper's
// properties from that capture plus the detector's reported resolutions
// (see internal/audit for what is checked and which theorem each check
// mechanizes). Audited activations are slower and report inflated
// Validate phase times; that is the price of auditing.

import (
	"slices"

	"hwtwbg/internal/audit"
	"hwtwbg/internal/detect"
	"hwtwbg/internal/lock"
	"hwtwbg/internal/table"
	"hwtwbg/internal/twbg"
)

// auditState is the pre-activation evidence the post-checks verify
// against: the H/W-TWBG rebuilt independently by the ECR rules, and a
// private copy of the table state for the Definition-1 oracle — or,
// when the input breaks Axiom 1, only the transactions that break it.
type auditState struct {
	graph *twbg.Graph
	clone *table.Table
	torn  []table.TxnID
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
//
// A merged snapshot whose shards were copied at different instants can
// show one transaction waiting at two resources (its earlier wait in a
// stale copy, its current one in a fresh copy). Theorem 1 and Lemma 4.1
// assume sequential transactions, so such an input is recorded as torn
// and the graph and resolution checks, which apply them, are skipped.
func (m *Manager) auditPreSnapshot() *auditState {
	if !m.opts.audit {
		return nil
	}
	tb := m.snap.ActiveTable()
	if torn := tornWaiters(tb); len(torn) > 0 {
		return &auditState{torn: torn}
	}
	return &auditState{graph: twbg.Build(tb), clone: tb.Clone()}
}

// auditPostSnapshot runs after the live replay. The snapshot-side
// checks are lock-free: Run applied every resolution to the snapshot
// table itself, so it must be cycle-free now no matter what the live
// shards did meanwhile. The live tables' structural invariants need a
// consistent cross-shard view, so the auditor briefly stops the world —
// a stall the snapshot detector otherwise never causes, acceptable in
// an audited test manager.
func (m *Manager) auditPostSnapshot(pre *auditState, res detect.Result) {
	if pre == nil {
		return
	}
	var vs []audit.Violation
	if pre.torn == nil {
		vs = audit.CheckGraph(pre.graph)
		vs = append(vs, audit.CheckResolutions(pre.graph, pre.clone, res.Resolutions)...)
	}
	vs = append(vs, audit.CheckAcyclic(m.snap.ActiveTable())...)
	m.stopTheWorld()
	vs = append(vs, audit.CheckTables(m.shardTables())...)
	m.resumeTheWorld()
	m.recordAudit(audit.Report{Detector: "snapshot", Torn: pre.torn, Violations: vs})
}

// tornWaiters returns, in id order, the transactions tb shows waiting
// at more than one resource, counting each queue entry and each blocked
// conversion as a wait. A sequential transaction waits at most once
// (Axiom 1), so only a snapshot merged from copies taken at different
// instants can show one waiting twice.
func tornWaiters(tb *table.Table) []table.TxnID {
	waits := map[table.TxnID]int{}
	var torn []table.TxnID
	wait := func(id table.TxnID) {
		if waits[id]++; waits[id] == 2 {
			torn = append(torn, id)
		}
	}
	tb.EachResource(func(r *table.Resource) bool {
		for i := range r.NumHolders() {
			if h := r.HolderAt(i); h.Blocked != lock.NL {
				wait(h.Txn)
			}
		}
		for i := range r.QueueLen() {
			wait(r.QueueAt(i).Txn)
		}
		return true
	})
	slices.Sort(torn)
	return torn
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

// recordAudit numbers one activation's report and appends it to the
// bounded ring.
func (m *Manager) recordAudit(rep audit.Report) {
	m.mu.Lock()
	m.auditRuns++
	rep.Seq = m.auditRuns
	m.auditReports = append(m.auditReports, rep)
	if len(m.auditReports) > auditReportCap {
		m.auditReports = m.auditReports[len(m.auditReports)-auditReportCap:]
	}
	m.mu.Unlock()
}
