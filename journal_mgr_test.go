package hwtwbg

import (
	"context"
	"testing"

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
// flight recorder off completely: no journal, no postmortems, and the
// lock path still works.
func TestJournalDisabled(t *testing.T) {
	m := Open(Options{JournalSize: -1})
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
	if pms, total := m.Postmortems(); len(pms) != 0 || total != 0 {
		t.Fatalf("Postmortems() = %d (total %d), want none", len(pms), total)
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

// TestJournalPostmortem drives a plain write-write deadlock (no
// compatible junction, so TDR-2 cannot apply and a victim dies) and
// checks the generated postmortem: the victim, the cycle edges with
// their journal evidence, and the participant-restricted tail.
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

	pms, total := m.Postmortems()
	if total != 1 || len(pms) != 1 {
		t.Fatalf("Postmortems() = %d reports (total %d), want 1", len(pms), total)
	}
	pm := pms[0]
	if pm.TDR2 {
		t.Fatal("postmortem claims TDR-2 for a victim abort")
	}
	if pm.Victim != a.ID() && pm.Victim != b.ID() {
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
		if ev.Txn != a.ID() && ev.Txn != b.ID() {
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
	// Wait-free writers: nothing in this test can tear.
	if snap.Journal.TornReads != 0 {
		t.Fatalf("torn reads = %d, want 0", snap.Journal.TornReads)
	}
}
