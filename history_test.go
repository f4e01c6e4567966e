package hwtwbg

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"hwtwbg/internal/jview"
	"hwtwbg/journal"
)

// deadlockOnce builds a two-transaction deadlock on distinct resources
// and resolves it with a manual Detect, so every call records exactly
// one victim event. Resources are namespaced by round to keep the lock
// tables disjoint across rounds.
func deadlockOnce(t *testing.T, m *Manager, round int) {
	t.Helper()
	ctx := context.Background()
	x := ResourceID(fmt.Sprintf("x%d", round))
	y := ResourceID(fmt.Sprintf("y%d", round))
	a, b := m.Begin(), m.Begin()
	if err := a.Lock(ctx, x, X); err != nil {
		t.Fatal(err)
	}
	if err := b.Lock(ctx, y, X); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	go func() { errs <- a.Lock(ctx, y, X) }()
	go func() { errs <- b.Lock(ctx, x, X) }()
	waitBlocked(t, m, a.ID())
	waitBlocked(t, m, b.ID())
	if st := m.Detect(); st.Aborted != 1 {
		t.Fatalf("round %d: aborted %d, want 1", round, st.Aborted)
	}
	<-errs
	<-errs
	a.Abort()
	b.Abort()
}

// repositionOnce builds the Example 4.1 miniature (the TDR-2 tableau of
// TestJournalEventSequence) on round-namespaced resources and resolves
// it with a manual Detect: one repositioning, nobody aborted.
func repositionOnce(t *testing.T, m *Manager, round int) {
	t.Helper()
	ctx := context.Background()
	q := ResourceID(fmt.Sprintf("q%d", round))
	h := ResourceID(fmt.Sprintf("h%d", round))
	t1, t2, t3 := m.Begin(), m.Begin(), m.Begin()
	if err := t1.Lock(ctx, q, IS); err != nil {
		t.Fatal(err)
	}
	if err := t3.Lock(ctx, h, X); err != nil {
		t.Fatal(err)
	}
	spawn := func(tx *Txn, r ResourceID, mode Mode) chan error {
		ch := make(chan error, 1)
		go func() { ch <- tx.Lock(ctx, r, mode) }()
		waitBlocked(t, m, tx.ID())
		return ch
	}
	c2 := spawn(t2, q, X)
	c3 := spawn(t3, q, S)
	c1 := spawn(t1, h, S) // closes the cycle
	if st := m.Detect(); st.Repositioned != 1 || st.Aborted != 0 {
		t.Fatalf("round %d: %+v, want one repositioning", round, st)
	}
	for _, step := range []struct {
		granted chan error
		tx      *Txn
	}{{c3, t3}, {c1, t1}, {c2, t2}} {
		if err := <-step.granted; err != nil {
			t.Fatal(err)
		}
		if err := step.tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

// cycleClosed reports whether a postmortem's edges form a cycle: each
// edge's To is the next edge's From, the last returning to the first.
func cycleClosed(pm jview.Postmortem) bool {
	if len(pm.Cycle) == 0 {
		return false
	}
	for i, e := range pm.Cycle {
		if e.To != pm.Cycle[(i+1)%len(pm.Cycle)].From {
			return false
		}
	}
	return true
}

// TestHistoryWraparoundPastCapacity runs more activations than the
// activation ring retains: the window is the most recent ones, oldest
// first, and the total keeps counting.
func TestHistoryWraparoundPastCapacity(t *testing.T) {
	m := Open(Options{})
	defer m.Close()
	window := len(m.activations)
	rounds := window + 4
	for i := 0; i < rounds; i++ {
		deadlockOnce(t, m, i)
	}
	reports, total := m.Activations()
	if total != rounds || len(reports) != window {
		t.Fatalf("activations: len=%d total=%d, want %d/%d", len(reports), total, window, rounds)
	}
	for i, rep := range reports {
		if want := rounds - window + 1 + i; rep.Seq != want {
			t.Fatalf("reports[%d].Seq = %d, want %d", i, rep.Seq, want)
		}
	}
}

// lastActivation returns the newest report Activations holds.
func lastActivation(tb testing.TB, m *Manager) ActivationReport {
	tb.Helper()
	reports, _ := m.Activations()
	if len(reports) == 0 {
		tb.Fatal("no activation recorded")
	}
	return reports[len(reports)-1]
}

// TestDetectorViewReconciles is TestTelemetryReconciles' sibling for
// the detector: on a manager whose control ring does not wrap, the
// resolutions decoded from the journal equal what Stats counted, every
// postmortem's cycle is closed, and activation seqs match Activations().
func TestDetectorViewReconciles(t *testing.T) {
	m := Open(Options{Shards: 4})
	defer m.Close()
	const deadlocks = 5
	for i := 0; i < deadlocks; i++ {
		deadlockOnce(t, m, i)
	}
	repositionOnce(t, m, 0)
	m.Detect() // an activation that finds nothing

	st := m.MetricsSnapshot().Detector
	if st.Aborted != deadlocks || st.Repositioned != 1 {
		t.Fatalf("stats = %+v", st)
	}
	snap := m.Journal().Snapshot()
	counts := map[string]int{}
	events, incomplete := jview.Resolutions(snap)
	if incomplete != 0 {
		t.Fatalf("%d incomplete groups on an unwrapped, quiescent ring", incomplete)
	}
	for _, e := range events {
		counts[e.Kind]++
	}
	if counts["victim"] != st.Aborted || counts["reposition"] != st.Repositioned || counts["salvage"] != st.Salvaged {
		t.Fatalf("decoded %v, stats %+v", counts, st)
	}

	pms, incomplete := jview.Postmortems(snap)
	if len(pms) != st.Aborted+st.Repositioned || incomplete != 0 {
		t.Fatalf("%d postmortems (%d incomplete), want %d", len(pms), incomplete, st.Aborted+st.Repositioned)
	}
	reports, _ := m.Activations()
	bySeq := map[int]ActivationReport{}
	for _, rep := range reports {
		bySeq[rep.Seq] = rep
	}
	acted := map[int]int{}
	for _, pm := range pms {
		if !cycleClosed(pm) {
			t.Errorf("open cycle: %+v", pm.Cycle)
		}
		rep, ok := bySeq[pm.Activation]
		if !ok || !pm.Time.Equal(time.Unix(0, rep.Time.UnixNano())) {
			t.Errorf("postmortem activation %d at %v matches no report (%+v)", pm.Activation, pm.Time, rep)
		}
		if len(pm.Tail) == 0 {
			t.Errorf("activation %d: empty tail", pm.Activation)
		}
		acted[pm.Activation]++
	}
	for _, rep := range reports {
		if acted[rep.Seq] != rep.Aborted+rep.Repositioned {
			t.Errorf("activation %d: %d postmortems, report %+v", rep.Seq, acted[rep.Seq], rep)
		}
	}
	last := pms[len(pms)-1]
	if !last.TDR2 || last.Resource != "q0" {
		t.Errorf("last postmortem = %+v, want the q0 repositioning", last)
	}
}

// TestDetectorViewAccountsForRingLoss wraps a small control ring
// mid-run and checks after every round that the view accounts for what
// the ring still holds: every resolution of an activation whose
// KindDetect record is retained comes back whole, the half-overwritten
// activation before it contributes only closed cycles plus the
// incomplete count, and nothing is ever rendered as a shorter cycle.
func TestDetectorViewAccountsForRingLoss(t *testing.T) {
	m := Open(Options{Shards: 1, JournalSize: 32})
	defer m.Close()
	ctx := context.Background()
	sawIncomplete, sawWrap := false, false
	for round := 0; round < 40; round++ {
		deadlockOnce(t, m, round)
		// A varying number of bystander transactions shifts where the
		// wrap cuts the next activation's records.
		for i := 0; i < round%4; i++ {
			tx := m.Begin()
			if err := tx.Lock(ctx, "bystander", S); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}

		snap := m.Journal().Snapshot()
		oldest := 0 // oldest retained KindDetect
		for i := range snap {
			if snap[i].Kind == journal.KindDetect {
				oldest = int(snap[i].Txn)
				break
			}
		}
		if oldest == 0 {
			t.Fatalf("round %d: no activation retained", round)
		}
		if oldest > 1 {
			sawWrap = true
		}
		reports, _ := m.Activations()
		want, before := 0, 0
		for _, rep := range reports {
			switch {
			case rep.Seq >= oldest:
				want += rep.Aborted + rep.Repositioned
			case rep.Seq == oldest-1:
				before = rep.Aborted + rep.Repositioned
			}
		}
		pms, incomplete := jview.Postmortems(snap)
		whole, partial := 0, 0
		for _, pm := range pms {
			if !cycleClosed(pm) {
				t.Fatalf("round %d: open cycle %+v", round, pm.Cycle)
			}
			switch {
			case pm.Activation >= oldest:
				whole++
			case pm.Activation == oldest-1:
				partial++
			default:
				t.Fatalf("round %d: postmortem of activation %d, oldest retained is %d", round, pm.Activation, oldest)
			}
		}
		if whole != want {
			t.Fatalf("round %d: %d postmortems since activation %d, Stats counted %d", round, whole, oldest, want)
		}
		if partial+incomplete > before {
			t.Fatalf("round %d: %d returned + %d incomplete for activation %d, which resolved %d", round, partial, incomplete, oldest-1, before)
		}
		if incomplete > 0 {
			sawIncomplete = true
		}
	}
	if !sawWrap || !sawIncomplete {
		t.Fatalf("wrapped=%v incomplete-seen=%v: the run never exercised the loss paths", sawWrap, sawIncomplete)
	}
}

// TestDetectorViewGroupsByEmissionOrder resolves two cycles in one
// activation where the second cycle's victim is also a vertex of the
// first — the case matching edges to victims by cycle membership gets
// wrong. T1→T2→T3→T1 and T3→T4→T3 share T3; costs make T2 the first
// cycle's victim and T3 the second's. Each victim must come back with
// its own cycle.
func TestDetectorViewGroupsByEmissionOrder(t *testing.T) {
	m := Open(Options{Shards: 4, DisableTDR2: true})
	defer m.Close()
	ctx := context.Background()
	t1, t2, t3, t4 := m.Begin(), m.Begin(), m.Begin(), m.Begin()
	hold := func(tx *Txn, mode Mode, rs ...ResourceID) {
		t.Helper()
		for _, r := range rs {
			if err := tx.Lock(ctx, r, mode); err != nil {
				t.Fatal(err)
			}
		}
	}
	// cost = locks held + 1: T1 5, T2 2, T3 3, T4 4.
	hold(t1, X, "s", "pad1a", "pad1b", "pad1c")
	hold(t2, S, "r")
	hold(t3, X, "p", "q")
	hold(t4, S, "r", "pad4a", "pad4b")
	spawn := func(tx *Txn, r ResourceID, mode Mode) chan error {
		ch := make(chan error, 1)
		go func() { ch <- tx.Lock(ctx, r, mode) }()
		waitBlocked(t, m, tx.ID())
		return ch
	}
	c2 := spawn(t2, "s", X) // T1 → T2
	c1 := spawn(t1, "p", X) // T3 → T1
	c4 := spawn(t4, "q", X) // T3 → T4
	c3 := spawn(t3, "r", X) // T2 → T3 and T4 → T3: closes both cycles

	st := m.Detect()
	if st.CyclesSearched != 2 || st.Aborted != 2 {
		t.Fatalf("Detect() = %+v, want two cycles, two victims", st)
	}
	pms, incomplete := jview.Postmortems(m.Journal().Snapshot())
	if len(pms) != 2 || incomplete != 0 {
		t.Fatalf("%d postmortems (%d incomplete), want 2", len(pms), incomplete)
	}
	members := func(pm jview.Postmortem) map[int64]bool {
		s := map[int64]bool{}
		for _, e := range pm.Cycle {
			s[e.From] = true
		}
		return s
	}
	want := map[int64][]TxnID{
		int64(t2.ID()): {t1.ID(), t2.ID(), t3.ID()},
		int64(t3.ID()): {t3.ID(), t4.ID()},
	}
	for _, pm := range pms {
		if pm.Activation != 1 || pm.TDR2 || !cycleClosed(pm) {
			t.Fatalf("postmortem %+v", pm)
		}
		cyc, ok := want[pm.Victim]
		if !ok {
			t.Fatalf("unexpected victim T%d", pm.Victim)
		}
		got := members(pm)
		if len(got) != len(cyc) {
			t.Fatalf("victim T%d grouped with cycle %v, want %v", pm.Victim, got, cyc)
		}
		for _, id := range cyc {
			if !got[int64(id)] {
				t.Fatalf("victim T%d grouped with cycle %v, want %v", pm.Victim, got, cyc)
			}
		}
		delete(want, pm.Victim)
	}

	for _, c := range []chan error{c2, c3} {
		if err := <-c; !errors.Is(err, ErrAborted) {
			t.Fatalf("victim's lock = %v, want ErrAborted", err)
		}
	}
	for _, step := range []struct {
		granted chan error
		tx      *Txn
	}{{c1, t1}, {c4, t4}} {
		if err := <-step.granted; err != nil {
			t.Fatal(err)
		}
		if err := step.tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDetectorViewConcurrentWithDetect races readers of the journal
// views and Activations() against manual Detect() calls resolving real
// deadlocks on a control ring small enough to wrap under them: a reader
// may catch an activation mid-emission or with its head overwritten,
// and must never panic or see an open cycle. Run under -race this also
// proves the activation ring is safely published.
func TestDetectorViewConcurrentWithDetect(t *testing.T) {
	m := Open(Options{JournalSize: 64})
	defer m.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := m.Journal().Snapshot()
				pms, _ := jview.Postmortems(snap)
				for _, pm := range pms {
					if !cycleClosed(pm) {
						t.Errorf("open cycle: %+v", pm)
					}
				}
				events, _ := jview.Resolutions(snap)
				if len(events) < len(pms) {
					t.Errorf("%d events for %d postmortems of one snapshot", len(events), len(pms))
				}
				reports, _ := m.Activations()
				for _, rep := range reports {
					if rep.Total < 0 {
						t.Errorf("negative total: %+v", rep)
					}
				}
				time.Sleep(50 * time.Microsecond)
			}
		}()
	}
	const rounds = 30
	for i := 0; i < rounds; i++ {
		deadlockOnce(t, m, i)
	}
	close(stop)
	wg.Wait()
	if st := m.MetricsSnapshot().Detector; st.Aborted != rounds {
		t.Fatalf("aborted = %d, want %d", st.Aborted, rounds)
	}
}
