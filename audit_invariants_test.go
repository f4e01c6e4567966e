package hwtwbg

// Tests of the runtime invariant auditor itself: they arm the
// Options.audit hook and require the auditor to check every detector
// activation — TDR-1 aborts, TDR-2 repositionings and idle passes,
// under both the production detector and the STW oracle — and to find
// nothing, to stay dormant without the hook, and to judge a snapshot
// torn across shards only by the checks that do not presuppose Axiom 1.
// The differential, drift and hammer tests also arm the auditor, so
// every build re-verifies the paper's properties across the whole
// randomized workload suite via assertAuditClean.

import (
	"context"
	"slices"
	"testing"

	"hwtwbg/internal/audit"
	"hwtwbg/internal/twbg"
)

// auditedDetectors returns the two activation entry points the auditor
// attaches to, keyed by the label their audit reports carry.
func auditedDetectors(m *Manager) map[string]func() Stats {
	return map[string]func() Stats{
		"stw":      newSTWOracle(m).Detect,
		"snapshot": m.Detect,
	}
}

// auditedDeadlock builds the two-transaction cross-shard deadlock on m
// and returns the channel carrying the two blocked Locks' errors.
func auditedDeadlock(t *testing.T, m *Manager) chan error {
	t.Helper()
	rs := distinctShardResources(t, m, 2)
	ctx := context.Background()
	a, b := m.Begin(), m.Begin()
	if err := a.Lock(ctx, rs[0], X); err != nil {
		t.Fatal(err)
	}
	if err := b.Lock(ctx, rs[1], X); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	go func() { errs <- a.Lock(ctx, rs[1], X) }()
	waitBlocked(t, m, a.ID())
	go func() { errs <- b.Lock(ctx, rs[0], X) }()
	waitBlocked(t, m, b.ID())
	return errs
}

// TestAuditorChecksEveryActivation runs a TDR-1 activation and an idle
// activation under the STW oracle and the production detector and
// requires one clean, correctly-labelled report per activation.
func TestAuditorChecksEveryActivation(t *testing.T) {
	for _, det := range []string{"stw", "snapshot"} {
		t.Run(det, func(t *testing.T) {
			m := Open(Options{Shards: 4, audit: true})
			defer m.Close()
			detect := auditedDetectors(m)[det]
			errs := auditedDeadlock(t, m)
			if st := detect(); st.Aborted != 1 {
				t.Fatalf("activation = %+v, want one abort", st)
			}
			<-errs
			<-errs
			if st := detect(); st.CyclesSearched != 0 {
				t.Fatalf("second activation = %+v, want idle", st)
			}
			n, reps := m.audits()
			if n != 2 {
				t.Fatalf("%d audited runs, want 2 (one per activation)", n)
			}
			if len(reps) != 2 {
				t.Fatalf("got %d audit reports, want 2", len(reps))
			}
			for i, rep := range reps {
				if rep.Detector != det {
					t.Errorf("report %d labelled %q, want %q", i, rep.Detector, det)
				}
				if rep.Seq != i+1 {
					t.Errorf("report %d has Seq %d, want %d", i, rep.Seq, i+1)
				}
				if !rep.Ok() {
					t.Errorf("%s", rep)
				}
			}
		})
	}
}

// TestAuditorTDR2Activation replays the TestManualDetectAndTDR2 tableau
// — a deadlock resolved by queue repositioning, nobody aborted — with
// the auditor armed: the repositioning must survive the genuine-cycle
// and post-resolution acyclicity checks.
func TestAuditorTDR2Activation(t *testing.T) {
	for _, det := range []string{"stw", "snapshot"} {
		t.Run(det, func(t *testing.T) {
			m := Open(Options{audit: true})
			defer m.Close()
			detect := auditedDetectors(m)[det]
			ctx := context.Background()
			t1, t2, t3 := m.Begin(), m.Begin(), m.Begin()
			if err := t1.Lock(ctx, "q", IS); err != nil {
				t.Fatal(err)
			}
			if err := t3.Lock(ctx, "h", X); err != nil {
				t.Fatal(err)
			}
			lockErr := make(chan error, 3)
			go func() { lockErr <- t2.Lock(ctx, "q", X) }()
			waitBlocked(t, m, t2.ID())
			go func() { lockErr <- t3.Lock(ctx, "q", S) }()
			waitBlocked(t, m, t3.ID())
			go func() { lockErr <- t1.Lock(ctx, "h", S) }()
			waitBlocked(t, m, t1.ID())
			if st := detect(); st.Repositioned != 1 || st.Aborted != 0 {
				t.Fatalf("activation = %+v, want one repositioning and no aborts", st)
			}
			if n, _ := m.audits(); n != 1 {
				t.Fatalf("%d audited runs, want 1", n)
			}
			assertAuditClean(t, m)
		})
	}
}

// TestAuditorRequiresOption checks the auditor stays dormant unless
// Options.audit is set, as it is for every production manager.
func TestAuditorRequiresOption(t *testing.T) {
	m := Open(Options{Shards: 4})
	defer m.Close()
	errs := auditedDeadlock(t, m)
	if st := m.Detect(); st.Aborted != 1 {
		t.Fatalf("activation = %+v, want one abort", st)
	}
	<-errs
	<-errs
	if n, reps := m.audits(); n != 0 || len(reps) != 0 {
		t.Fatalf("%d audited runs, reports %v without Options.audit, want none", n, reps)
	}
}

// TestAuditorTornSnapshot pins the torn input the auditor must not
// judge by the paper's lemmas. Activation 1 copies shard A while T is
// queued at rA behind a holder, a successor queued behind T; then T's
// rA request is granted and T blocks at rB in shard B, again with a
// successor behind it. Shard A's epoch is faked back, so activation 2
// reuses A's stale copy next to B's fresh one: the merged snapshot
// shows T waiting twice, with two W successors, which breaks Axiom 1
// and which CheckGraph would report as a w-successor violation. The
// auditor must record the snapshot as torn, skip the graph and
// resolution checks for that activation only, and find nothing; the
// activation must act on nothing.
func TestAuditorTornSnapshot(t *testing.T) {
	m := Open(Options{Shards: 4, audit: true})
	defer m.Close()
	ctx := context.Background()
	rs := distinctShardResources(t, m, 2)
	rA, rB := rs[0], rs[1]
	hA, tx, sA, hB, sB := m.Begin(), m.Begin(), m.Begin(), m.Begin(), m.Begin()
	mustLock(t, hA, rA)
	mustLock(t, hB, rB)
	park := func(w *Txn, r ResourceID) <-chan error {
		errc := make(chan error, 1)
		go func() { errc <- w.Lock(ctx, r, X) }()
		waitBlocked(t, m, w.ID())
		return errc
	}
	txA := park(tx, rA)
	sAErr := park(sA, rA)
	m.Detect() // shard A is copied with [T, successor] queued at rA
	shA := m.shards[shardIndex(rA, m.mask)]
	copied := shA.epoch.load()
	if err := hA.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-txA; err != nil {
		t.Fatalf("T's rA lock = %v, want it granted", err)
	}
	txB := park(tx, rB)
	sBErr := park(sB, rB)
	shA.epoch.v.Store(copied)

	st := m.Detect()
	if st.CyclesSearched != 0 || st.Validations != 0 || st.Aborted != 0 || st.Repositioned != 0 {
		t.Fatalf("torn activation = %+v, want it to act on nothing", st)
	}
	if vs := audit.CheckGraph(twbg.Build(m.snap.ActiveTable())); len(vs) == 0 || vs[0].Rule != "w-successor" {
		t.Fatalf("CheckGraph on the torn snapshot = %v, want a w-successor violation", vs)
	}
	// Recopy A: the next snapshot is consistent and judged strictly.
	shA.mu.Lock()
	shA.epoch.bump()
	shA.mu.Unlock()
	m.Detect()
	_, reps := m.audits()
	torn := 0
	for _, rep := range reps {
		if len(rep.Torn) > 0 {
			torn++
			if !slices.Equal(rep.Torn, []TxnID{tx.ID()}) || rep.Seq != 2 {
				t.Errorf("torn report %s, want audit 2 naming only %v", rep, tx.ID())
			}
		}
	}
	if torn != 1 {
		t.Errorf("%d torn snapshots in %v, want 1", torn, reps)
	}
	assertAuditClean(t, m)

	for _, step := range []struct {
		tx   *Txn
		errc <-chan error
	}{{hB, nil}, {tx, txB}, {sA, sAErr}, {sB, sBErr}} {
		if step.errc != nil {
			if err := <-step.errc; err != nil {
				t.Fatalf("T%d's lock = %v, want it granted", step.tx.ID(), err)
			}
		}
		if err := step.tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}
