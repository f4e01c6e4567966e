package hwtwbg

import (
	"context"
	"errors"
	"testing"

	"hwtwbg/internal/jview"
	"hwtwbg/journal"
)

// jev is the journal-record shape the sequence tests compare: kind,
// transaction, resource and the kind-specific argument.
type jev struct {
	kind journal.Kind
	txn  int64
	res  string
	arg  uint64
}

func summarize(recs []journal.Record) []jev {
	out := make([]jev, 0, len(recs))
	for i := range recs {
		r := &recs[i]
		e := jev{kind: r.Kind, txn: r.Txn, res: r.Resource()}
		// Only assert arguments that are deterministic: queue depths and
		// cycle-edge targets. Wait durations and phase timings vary.
		switch r.Kind {
		case journal.KindBlock, journal.KindCycleEdge:
			e.arg = r.Arg
		}
		out = append(out, e)
	}
	return out
}

func diffSeq(t *testing.T, got, want []jev) {
	t.Helper()
	for i := 0; i < len(got) || i < len(want); i++ {
		switch {
		case i >= len(want):
			t.Errorf("event %d: extra %+v", i, got[i])
		case i >= len(got):
			t.Errorf("event %d: missing %+v", i, want[i])
		case got[i] != want[i]:
			t.Errorf("event %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestJournalDisabled checks that a negative JournalSize turns the
// flight recorder off completely: no journal — so no event list and no
// postmortems to read — while the lock path still works and Stats and
// OnVictim still count and deliver every victim.
func TestJournalDisabled(t *testing.T) {
	var victims []TxnID
	m := Open(Options{JournalSize: -1, OnVictim: func(id TxnID) { victims = append(victims, id) }})
	defer m.Close()
	if m.Journal() != nil {
		t.Fatal("Journal() non-nil with JournalSize -1")
	}
	tx := m.Begin()
	if err := tx.Lock(context.Background(), "r", X); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	deadlockOnce(t, m, 0)
	if st := m.MetricsSnapshot().Detector; st.Aborted != 1 || st.Runs != 1 {
		t.Fatalf("stats = %+v, want the victim counted", st)
	}
	if len(victims) != 1 {
		t.Fatalf("OnVictim delivered %v, want one victim", victims)
	}
	if reports, total := m.Activations(); len(reports) != 1 || total != 1 || reports[0].Aborted != 1 {
		t.Fatalf("Activations() = %+v (total %d)", reports, total)
	}
}

// TestJournalEventSequence pins the exact record sequence the flight
// recorder captures for the Example 4.1 miniature (the TDR-2 scenario
// of TestTDR2Repositioning) on a single shard: every begin, grant and
// block during the build-up, then the detector's activation, cycle
// evidence and repositioning, then the waited grant it releases. The
// unwind (commits racing waiter wake-ups) is checked as a set — their
// relative timestamps are scheduler-dependent.
func TestJournalEventSequence(t *testing.T) {
	m := Open(Options{Shards: 1})
	defer m.Close()
	ctx := context.Background()

	t1 := m.Begin()
	t2 := m.Begin()
	t3 := m.Begin()
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
	go func() { lockErr <- t1.Lock(ctx, "h", S) }() // closes the cycle
	waitBlocked(t, m, t1.ID())

	// Phase 1: the build-up. Lazy begin records appear with the first
	// lock request of each transaction, one nanosecond ahead of it.
	buildUp := []jev{
		{journal.KindBegin, 1, "", 0},
		{journal.KindGrant, 1, "q", 0},
		{journal.KindBegin, 3, "", 0},
		{journal.KindGrant, 3, "h", 0},
		{journal.KindBegin, 2, "", 0},
		{journal.KindBlock, 2, "q", 1},
		{journal.KindBlock, 3, "q", 2},
		{journal.KindBlock, 1, "h", 1},
	}
	diffSeq(t, summarize(m.Journal().Snapshot()), buildUp)
	if t.Failed() {
		t.Fatal("build-up sequence mismatch")
	}

	// Phase 2: one manual activation resolves the deadlock by
	// repositioning T3's compatible S ahead of T2's X on q. The detector
	// journals its activation, the resolved cycle's edges (evidence for
	// the postmortem) and the repositioning, all timestamped at the
	// activation; the grant it releases follows.
	if st := m.Detect(); st.Repositioned != 1 || st.Aborted != 0 {
		t.Fatalf("Detect() = %+v, want one repositioning", st)
	}
	if err := <-lockErr; err != nil {
		t.Fatalf("repositioned lock: %v", err)
	}
	afterDetect := append(append([]jev{}, buildUp...),
		jev{journal.KindDetect, 1, "", 0},
		jev{journal.KindReposition, 3, "q", 0},
		jev{journal.KindCycleEdge, 1, "q", 2},
		jev{journal.KindCycleEdge, 2, "q", 3},
		jev{journal.KindCycleEdge, 3, "h", 1},
		jev{journal.KindGrant, 3, "q", 0},
	)
	diffSeq(t, summarize(m.Journal().Snapshot()), afterDetect)
	if t.Failed() {
		t.Fatal("post-detection sequence mismatch")
	}

	// Phase 3: unwind. Commit records race the waited grants they
	// release, so only membership is asserted.
	if err := t3.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-lockErr; err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-lockErr; err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	want := map[jev]int{
		{journal.KindCommit, 1, "", 0}: 1,
		{journal.KindCommit, 2, "", 0}: 1,
		{journal.KindCommit, 3, "", 0}: 1,
		{journal.KindGrant, 1, "h", 0}: 1,
		{journal.KindGrant, 2, "q", 0}: 1,
	}
	final := summarize(m.Journal().Snapshot())
	if len(final) != len(afterDetect)+5 {
		t.Fatalf("final snapshot has %d records, want %d", len(final), len(afterDetect)+5)
	}
	for _, e := range final[len(afterDetect):] {
		if want[e] == 0 {
			t.Errorf("unexpected unwind record %+v", e)
			continue
		}
		want[e]--
	}
	for e, n := range want {
		if n != 0 {
			t.Errorf("missing unwind record %+v", e)
		}
	}
}

// TestLockFreeTxnJournalsNoEnd: a transaction that never requested a
// lock has no begin record, so its commit or abort writes none either —
// an end record without a begin is what Analyze counts as ring loss.
func TestLockFreeTxnJournalsNoEnd(t *testing.T) {
	m := Open(Options{Shards: 1})
	defer m.Close()
	ctx := context.Background()
	m.Begin().Commit()
	m.Begin().Abort()
	tx := m.Begin()
	if err := tx.Lock(ctx, "r", X); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	tx = m.Begin()
	if err := tx.Lock(ctx, "r", X); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	recs := m.Journal().Snapshot()
	if rep := jview.Analyze(recs); rep.Orphans != 0 || rep.Txns != 2 {
		t.Fatalf("Analyze: orphans %d, txns %d; want 0 and 2", rep.Orphans, rep.Txns)
	}
	want := []jev{
		{journal.KindBegin, 3, "", 0},
		{journal.KindGrant, 3, "r", 0},
		{journal.KindCommit, 3, "", 0},
		{journal.KindBegin, 4, "", 0},
		{journal.KindGrant, 4, "r", 0},
		{journal.KindAbort, 4, "", 0},
	}
	diffSeq(t, summarize(recs), want)
}

// TestJournalPostmortem drives a plain write-write deadlock (no
// compatible junction, so TDR-2 cannot apply and a victim dies) and
// checks the postmortem read back from the journal: the victim, the
// cycle edges with their journal evidence, and the participant-
// restricted tail.
func TestJournalPostmortem(t *testing.T) {
	m := Open(Options{Shards: 1})
	defer m.Close()
	ctx := context.Background()

	a := m.Begin()
	b := m.Begin()
	if err := a.Lock(ctx, "u", X); err != nil {
		t.Fatal(err)
	}
	if err := b.Lock(ctx, "v", X); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 2)
	go func() { errc <- a.Lock(ctx, "v", X) }()
	waitBlocked(t, m, a.ID())
	go func() { errc <- b.Lock(ctx, "u", X) }()
	waitBlocked(t, m, b.ID())

	if st := m.Detect(); st.Aborted != 1 {
		t.Fatalf("Detect() = %+v, want one abort", st)
	}
	// Drain both lock attempts; exactly one dies.
	if err1, err2 := <-errc, <-errc; (err1 == nil) == (err2 == nil) {
		t.Fatalf("lock results %v / %v, want exactly one ErrAborted", err1, err2)
	}

	pms, incomplete := jview.Postmortems(m.Journal().Snapshot())
	if len(pms) != 1 || incomplete != 0 {
		t.Fatalf("Postmortems = %d reports (%d incomplete), want 1", len(pms), incomplete)
	}
	pm := pms[0]
	if pm.TDR2 {
		t.Fatal("postmortem claims TDR-2 for a victim abort")
	}
	if pm.Victim != int64(a.ID()) && pm.Victim != int64(b.ID()) {
		t.Fatalf("victim %d is not a participant", pm.Victim)
	}
	if pm.Activation != 1 {
		t.Fatalf("activation = %d, want 1", pm.Activation)
	}
	if len(pm.Cycle) == 0 {
		t.Fatal("postmortem has no cycle edges")
	}
	evidence := 0
	for _, e := range pm.Cycle {
		if e.Resource != "u" && e.Resource != "v" {
			t.Errorf("cycle edge resource %q, want u or v", e.Resource)
		}
		evidence += len(e.Evidence)
	}
	if evidence == 0 {
		t.Fatal("no journal evidence attached to any cycle edge")
	}
	if len(pm.Tail) == 0 {
		t.Fatal("postmortem tail is empty")
	}
	for _, ev := range pm.Tail {
		if ev.Txn != int64(a.ID()) && ev.Txn != int64(b.ID()) {
			t.Errorf("tail event for non-participant T%d", ev.Txn)
		}
	}
	b.Abort()
	a.Abort()
}

// TestJournalStatsInMetrics checks the recorder's counters ride along
// in MetricsSnapshot.
func TestJournalStatsInMetrics(t *testing.T) {
	m := Open(Options{Shards: 1})
	defer m.Close()
	tx := m.Begin()
	if err := tx.Lock(context.Background(), "r", X); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	snap := m.MetricsSnapshot()
	if snap.Journal.Emitted < 3 { // begin, grant, commit
		t.Fatalf("journal emitted %d records, want >= 3", snap.Journal.Emitted)
	}
	if snap.Journal.Cap == 0 {
		t.Fatal("journal capacity missing from metrics snapshot")
	}
}

// TestJournalConversionFlagOnWaitedGrant pins the UPR case on every
// route into waitGrant: T1 and T2 share S on r, T1 asks for X (blocking
// as an upgrader), T2 commits. Both the block record and the waited
// grant record of (T1, r, X) must carry FlagConversion.
func TestJournalConversionFlagOnWaitedGrant(t *testing.T) {
	ctx := context.Background()
	routes := map[string]func(*Manager, *Txn) <-chan error{
		"Lock": func(m *Manager, t1 *Txn) <-chan error {
			done := make(chan error, 1)
			go func() { done <- t1.Lock(ctx, "r", X) }()
			return done
		},
		"LockAll": func(m *Manager, t1 *Txn) <-chan error {
			done := make(chan error, 1)
			go func() { done <- t1.LockAll(ctx, []LockRequest{{"r", X}, {"r2", X}}) }()
			return done
		},
	}
	for name, upgrade := range routes {
		t.Run(name, func(t *testing.T) {
			m := Open(Options{Shards: 1})
			defer m.Close()
			t1, t2 := m.Begin(), m.Begin()
			for _, tx := range []*Txn{t1, t2} {
				if err := tx.Lock(ctx, "r", S); err != nil {
					t.Fatal(err)
				}
			}
			done := upgrade(m, t1)
			waitBlocked(t, m, t1.ID())
			if err := t2.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			seen := map[journal.Kind]int{}
			for _, rec := range m.Journal().Snapshot() {
				if rec.Txn != int64(t1.ID()) || rec.Resource() != "r" || Mode(rec.Mode) != X {
					continue
				}
				seen[rec.Kind]++
				if rec.Flags&journal.FlagConversion == 0 {
					t.Errorf("%v record of the blocked upgrade lacks FlagConversion: %v", rec.Kind, &rec)
				}
			}
			if seen[journal.KindBlock] != 1 || seen[journal.KindGrant] != 1 || len(seen) != 2 {
				t.Fatalf("records for (T1, r, X) = %v, want one block and one grant", seen)
			}
			if err := t1.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// journalTally counts a journal snapshot's records by the kinds the
// metric counters have a say about.
type journalTally struct {
	grants, waitedGrants, blocks, refusedProbes, aborts, detects int
}

func tallyJournal(recs []journal.Record) journalTally {
	var n journalTally
	for i := range recs {
		switch r := &recs[i]; r.Kind {
		case journal.KindGrant:
			n.grants++
			if r.Arg > 0 {
				n.waitedGrants++
			}
		case journal.KindBlock:
			n.blocks++
		case journal.KindRequest:
			if r.Flags&journal.FlagTry != 0 {
				n.refusedProbes++
			}
		case journal.KindAbort:
			n.aborts++
		case journal.KindDetect:
			n.detects++
		}
	}
	return n
}

// TestTelemetryReconciles is the conservation check across the three
// telemetry surfaces — counters, histograms, journal — that the one
// emission seam makes possible: after a mixed workload quiesces with
// nothing overwritten, every request outcome must have been counted,
// observed and journaled exactly once.
func TestTelemetryReconciles(t *testing.T) {
	m := Open(Options{Shards: 2, JournalSize: 1 << 12})
	defer m.Close()
	ctx := context.Background()
	res := func(shard uint32, salt int) ResourceID { return shardResource(t, m, shard, salt) }
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	// Lock: immediate grants on both shards, one of them a conversion.
	a := m.Begin()
	must(a.Lock(ctx, res(0, 1), IS))
	must(a.Lock(ctx, res(0, 1), IX))
	must(a.Lock(ctx, res(1, 2), X))

	// TryLock: one probe granted, one refused behind a's X.
	b := m.Begin()
	if ok, err := b.TryLock(res(0, 3), S); !ok || err != nil {
		t.Fatalf("TryLock on a free resource = %v, %v", ok, err)
	}
	if ok, err := b.TryLock(res(1, 2), S); ok || err != nil {
		t.Fatalf("TryLock behind an X = %v, %v", ok, err)
	}

	// LockAll: a three-request run in shard 1 that blocks mid-batch behind
	// a's X and resumes after a commits — a blocked upgrade rides along
	// through Lock (b holds S on res(0,3); a shares it, then b upgrades).
	must(a.Lock(ctx, res(0, 3), S))
	batch := make(chan error, 1)
	c := m.Begin()
	go func() {
		batch <- c.LockAll(ctx, []LockRequest{{res(1, 4), X}, {res(1, 2), S}, {res(1, 5), X}})
	}()
	waitBlocked(t, m, c.ID())
	upgrade := make(chan error, 1)
	go func() { upgrade <- b.Lock(ctx, res(0, 3), X) }()
	waitBlocked(t, m, b.ID())
	must(a.Commit())
	must(<-batch)
	must(<-upgrade)

	// One X granted, one S blocked behind it and granted at commit.
	d, e := m.Begin(), m.Begin()
	must(d.Lock(ctx, res(0, 6), X))
	blockedS := make(chan error, 1)
	go func() { blockedS <- e.Lock(ctx, res(0, 6), S) }()
	waitBlocked(t, m, e.ID())
	must(d.Commit())
	must(<-blockedS)
	must(b.Commit())
	must(c.Commit())
	must(e.Commit())

	// One deadlock victim: a cross-shard two-cycle, resolved by hand.
	f, g := m.Begin(), m.Begin()
	must(f.Lock(ctx, res(0, 7), X))
	must(g.Lock(ctx, res(1, 8), X))
	cyc := make(chan error, 2)
	go func() { cyc <- f.Lock(ctx, res(1, 8), X) }()
	go func() { cyc <- g.Lock(ctx, res(0, 7), X) }()
	waitBlocked(t, m, f.ID())
	waitBlocked(t, m, g.ID())
	if st := m.Detect(); st.Aborted != 1 {
		t.Fatalf("Detect() = %+v, want one victim", st)
	}
	if e1, e2 := <-cyc, <-cyc; errors.Is(e1, ErrAborted) == errors.Is(e2, ErrAborted) {
		t.Fatalf("cycle results %v / %v, want exactly one ErrAborted", e1, e2)
	}
	for _, tx := range []*Txn{f, g} {
		if tx.Err() == nil {
			must(tx.Commit())
		}
	}

	// One cancelled wait. Its blocker keeps the lock until the waiter has
	// returned, so no grant is handed to a waiter that never observes it.
	h, w := m.Begin(), m.Begin()
	must(h.Lock(ctx, res(1, 9), X))
	cctx, cancel := context.WithCancel(ctx)
	cancelled := make(chan error, 1)
	go func() { cancelled <- w.Lock(cctx, res(1, 9), S) }()
	waitBlocked(t, m, w.ID())
	cancel()
	if err := <-cancelled; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled wait returned %v", err)
	}
	must(h.Commit())

	// Quiesced: every transaction has finished, nothing is waiting.
	if st := m.Journal().Stats(); st.Overwritten != 0 {
		t.Fatalf("journal lost records: %+v", st)
	}
	j := tallyJournal(m.Journal().Snapshot())
	tot := m.MetricsSnapshot().Total
	// A hand-off grant is counted by the releasing shard but journaled
	// and observed by the waiter, so a waiter that is cancelled or
	// condemned between the two leaves Grants one ahead of both. This
	// workload has none: its victim was blocked when it was aborted and
	// its cancelled waiter's blocker outlived the wait.
	const unobservedHandoffs = 0
	for _, id := range []struct {
		name        string
		left, right uint64
	}{
		{"journal grants == Grants - unobserved hand-offs", uint64(j.grants), tot.Grants - unobservedHandoffs},
		{"GrantNs.Count == Grants - unobserved hand-offs", tot.GrantNs.Count, tot.Grants - unobservedHandoffs},
		{"journal blocks == Blocked", uint64(j.blocks), tot.Blocked},
		{"QueueDepth.Count == Blocked", tot.QueueDepth.Count, tot.Blocked},
		{"journal waited grants == WaitNs.Count", uint64(j.waitedGrants), tot.WaitNs.Count},
		{"journal refused probes == TryRefused", uint64(j.refusedProbes), tot.TryRefused},
		{"Blocked == waited grants + WaitAborts", tot.Blocked, uint64(j.waitedGrants) + tot.WaitAborts},
		{"Fresh + Conversions == Immediate + Blocked", tot.Fresh + tot.Conversions, tot.Immediate + tot.Blocked},
	} {
		if id.left != id.right {
			t.Errorf("%s: %d != %d", id.name, id.left, id.right)
		}
	}
	// The identities are vacuous on an empty workload; pin its shape.
	if j.blocks != 6 || j.waitedGrants != 4 || tot.WaitAborts != 2 || j.refusedProbes != 1 || tot.Conversions != 2 {
		t.Errorf("workload shape: journal %+v, total %+v", j, tot)
	}
}
