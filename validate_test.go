// Regression tests for validate.go's edge re-verification: each test
// uses testHookAfterCopy to mutate the live tables between the
// snapshot copy-out and the algorithm, so the detector proposes a
// resolution whose evidence has drifted in one specific way, and
// validation must drop it through that branch — W-edge queue adjacency
// changed, ECR-2 first-conflicting member changed, ECR-1 conversion
// evidence gone, cycle resources evaporated entirely. The companion
// torn-snapshot test (TestSnapshotFalseCycle) covers the simplest
// drift, a cycle party cancelling.
package hwtwbg

import (
	"context"
	"errors"
	"testing"

	"hwtwbg/internal/detect"
)

// TestValidateWAdjacencyDrift breaks a cycle's W edge without touching
// its H edges: the cycle runs down a queue [T2, T4, T3] and the middle
// waiter T4 — a bystander, not deadlocked — cancels after copy-out.
// Live, From (T2) is still queued in the recorded mode but its
// successor is now T3, not T4, so the W-edge adjacency check fails and
// the resolution is dropped. The deadlock itself is still real (the
// cycle re-forms as T1→T2→T3→T1), so the next activation must resolve
// it — by TDR-2, nobody aborted.
func TestValidateWAdjacencyDrift(t *testing.T) {
	m := Open(Options{Shards: 4, audit: true})
	defer m.Close()
	bg := context.Background()
	t1, t2, t3, t4 := m.Begin(), m.Begin(), m.Begin(), m.Begin()
	if err := t1.Lock(bg, "q", IS); err != nil {
		t.Fatal(err)
	}
	if err := t3.Lock(bg, "h", X); err != nil {
		t.Fatal(err)
	}
	lockErr := make(chan error, 3)
	go func() { lockErr <- t2.Lock(bg, "q", X) }()
	waitBlocked(t, m, t2.ID())
	ctx4, cancel4 := context.WithCancel(bg)
	defer cancel4()
	err4 := make(chan error, 1)
	go func() { err4 <- t4.Lock(ctx4, "q", S) }()
	waitBlocked(t, m, t4.ID())
	go func() { lockErr <- t3.Lock(bg, "q", S) }()
	waitBlocked(t, m, t3.ID())
	go func() { lockErr <- t1.Lock(bg, "h", S) }()
	waitBlocked(t, m, t1.ID())
	if !m.Deadlocked() {
		t.Fatalf("expected deadlock:\n%s", m.Snapshot())
	}

	m.testHookAfterCopy = func() {
		cancel4()
		if err := <-err4; !errors.Is(err, context.Canceled) {
			t.Errorf("t4.Lock = %v, want context.Canceled", err)
		}
	}
	st := m.Detect()
	m.testHookAfterCopy = nil
	if st.CyclesSearched != 1 || st.FalseCycles != 1 || st.Validations != 1 {
		t.Fatalf("activation = %+v, want the one cycle dropped at validation", st)
	}
	if st.Aborted != 0 || st.Repositioned != 0 {
		t.Fatalf("activation acted on drifted evidence: %+v", st)
	}
	// The drifted cycle was real; the re-formed one must be caught now.
	if !m.Deadlocked() {
		t.Fatalf("deadlock should have survived the dropped resolution:\n%s", m.Snapshot())
	}
	st = m.Detect()
	if st.Repositioned != 1 || st.Aborted != 0 || st.FalseCycles != 0 {
		t.Fatalf("second activation = %+v, want one TDR-2 repositioning", st)
	}
	// Unwind: t3's repositioned S is granted, then commits free h and q.
	if err := <-lockErr; err != nil {
		t.Fatalf("repositioned lock: %v", err)
	}
	if err := t3.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-lockErr; err != nil {
		t.Fatalf("t1's lock: %v", err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-lockErr; err != nil {
		t.Fatalf("t2's lock: %v", err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	assertAuditClean(t, m)
}

// TestValidateECR2FirstConflictDrift breaks a cycle's ECR-2 H edge by
// changing which queue member conflicts first: the recorded target T2
// cancels, leaving the bystander T4 as A's first conflicting waiter.
// edgeHolds must notice the mismatch (Step 1 stops at the first
// conflict, so an edge to anyone else is different evidence) and drop
// the resolution; T2's departure also dissolved the deadlock, so
// nothing remains to resolve.
func TestValidateECR2FirstConflictDrift(t *testing.T) {
	m := Open(Options{Shards: 4, audit: true})
	defer m.Close()
	bg := context.Background()
	t1, t2, t4 := m.Begin(), m.Begin(), m.Begin()
	if err := t1.Lock(bg, "A", X); err != nil {
		t.Fatal(err)
	}
	if err := t2.Lock(bg, "B", X); err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithCancel(bg)
	defer cancel2()
	err2 := make(chan error, 1)
	go func() { err2 <- t2.Lock(ctx2, "A", X) }()
	waitBlocked(t, m, t2.ID())
	err4 := make(chan error, 1)
	go func() { err4 <- t4.Lock(bg, "A", X) }()
	waitBlocked(t, m, t4.ID())
	err1 := make(chan error, 1)
	go func() { err1 <- t1.Lock(bg, "B", X) }()
	waitBlocked(t, m, t1.ID())
	if !m.Deadlocked() {
		t.Fatalf("expected deadlock:\n%s", m.Snapshot())
	}

	m.testHookAfterCopy = func() {
		cancel2()
		if err := <-err2; !errors.Is(err, context.Canceled) {
			t.Errorf("t2.Lock = %v, want context.Canceled", err)
		}
	}
	st := m.Detect()
	m.testHookAfterCopy = nil
	if st.CyclesSearched != 1 || st.FalseCycles != 1 {
		t.Fatalf("activation = %+v, want the one cycle dropped at validation", st)
	}
	if st.Aborted != 0 || st.Repositioned != 0 {
		t.Fatalf("activation acted on drifted evidence: %+v", st)
	}
	// t2's abort freed B for t1; t1's commit then frees A for t4.
	if err := <-err1; err != nil {
		t.Fatalf("t1's lock: %v", err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-err4; err != nil {
		t.Fatalf("t4's lock: %v", err)
	}
	if err := t4.Commit(); err != nil {
		t.Fatal(err)
	}
	if evs := decisions(t, m); len(evs) != 0 {
		t.Fatalf("dropped cycle left history events: %v", evs)
	}
	assertAuditClean(t, m)
}

// TestValidateECR1ConversionDrift drifts a cycle built on an ECR-1
// edge: t2 and t3 both hold S on r, t3's X conversion is blocked by
// t2's grant (ECR-1: t2→t3), and t2 waits for B which t3 holds. After
// copy-out t2 cancels; its S grant is released, the X conversion is
// granted, and the recorded ECR-1 evidence — t2 a fellow holder in
// conflict — is gone. Validation must drop the resolution without
// aborting anyone.
func TestValidateECR1ConversionDrift(t *testing.T) {
	m := Open(Options{Shards: 4, audit: true})
	defer m.Close()
	bg := context.Background()
	t2, t3 := m.Begin(), m.Begin()
	if err := t2.Lock(bg, "r", S); err != nil {
		t.Fatal(err)
	}
	if err := t3.Lock(bg, "r", S); err != nil {
		t.Fatal(err)
	}
	if err := t3.Lock(bg, "B", X); err != nil {
		t.Fatal(err)
	}
	err3 := make(chan error, 1)
	go func() { err3 <- t3.Lock(bg, "r", X) }() // conversion S→X, blocked by t2's S
	waitBlocked(t, m, t3.ID())
	ctx2, cancel2 := context.WithCancel(bg)
	defer cancel2()
	err2 := make(chan error, 1)
	go func() { err2 <- t2.Lock(ctx2, "B", X) }()
	waitBlocked(t, m, t2.ID())
	if !m.Deadlocked() {
		t.Fatalf("expected conversion deadlock:\n%s", m.Snapshot())
	}

	m.testHookAfterCopy = func() {
		cancel2()
		if err := <-err2; !errors.Is(err, context.Canceled) {
			t.Errorf("t2.Lock = %v, want context.Canceled", err)
		}
	}
	st := m.Detect()
	m.testHookAfterCopy = nil
	if st.CyclesSearched != 1 || st.FalseCycles != 1 {
		t.Fatalf("activation = %+v, want the one cycle dropped at validation", st)
	}
	if st.Aborted != 0 || st.Repositioned != 0 {
		t.Fatalf("activation acted on drifted evidence: %+v", st)
	}
	// t2's departure granted the conversion.
	if err := <-err3; err != nil {
		t.Fatalf("t3's conversion: %v", err)
	}
	if got := t3.Mode("r"); got != X {
		t.Fatalf("t3 r mode = %v, want X", got)
	}
	if err := t3.Commit(); err != nil {
		t.Fatal(err)
	}
	assertAuditClean(t, m)
}

// TestValidateEvaporatedResource drifts a cycle all the way to nothing:
// after copy-out one party cancels, the survivor is granted and
// commits, and both cycle resources are released empty — so validation
// finds no live resource behind the evidence at all and must drop the
// resolution.
func TestValidateEvaporatedResource(t *testing.T) {
	m := Open(Options{Shards: 4, audit: true})
	defer m.Close()
	bg := context.Background()
	a, b := m.Begin(), m.Begin()
	if err := a.Lock(bg, "x", X); err != nil {
		t.Fatal(err)
	}
	if err := b.Lock(bg, "y", X); err != nil {
		t.Fatal(err)
	}
	aErr := make(chan error, 1)
	go func() { aErr <- a.Lock(bg, "y", X) }()
	waitBlocked(t, m, a.ID())
	bCtx, cancelB := context.WithCancel(bg)
	defer cancelB()
	bErr := make(chan error, 1)
	go func() { bErr <- b.Lock(bCtx, "x", X) }()
	waitBlocked(t, m, b.ID())
	if !m.Deadlocked() {
		t.Fatalf("expected deadlock:\n%s", m.Snapshot())
	}

	m.testHookAfterCopy = func() {
		cancelB()
		if err := <-bErr; !errors.Is(err, context.Canceled) {
			t.Errorf("b.Lock = %v, want context.Canceled", err)
		}
		// b's abort granted a's pending request; retire a too, so both
		// cycle resources are released with empty queues.
		if err := <-aErr; err != nil {
			t.Errorf("a.Lock = %v, want granted by b's departure", err)
		}
		if err := a.Commit(); err != nil {
			t.Errorf("a.Commit: %v", err)
		}
	}
	st := m.Detect()
	m.testHookAfterCopy = nil
	if st.CyclesSearched != 1 || st.FalseCycles != 1 || st.Validations != 1 {
		t.Fatalf("activation = %+v, want the one cycle dropped at validation", st)
	}
	if st.Aborted != 0 || st.Repositioned != 0 || st.Salvaged != 0 {
		t.Fatalf("activation acted on evaporated evidence: %+v", st)
	}
	if evs := decisions(t, m); len(evs) != 0 {
		t.Fatalf("dropped cycle left history events: %v", evs)
	}
	assertAuditClean(t, m)
}

// TestValidateWindowActiveCopy enumerates what the active-only copy
// adds to the window between copy and act, one mutation per row. A
// snapshot now holds a resource only while somebody waits on it, each
// wait stamped with its transaction's lock count, so the ways it can be
// out of date are: a resource that was not worth copying becomes the
// missing half of a cycle (a), a copied one drains (b), a waiter's
// stamp goes stale — an abort sweeping its shards one at a time is the
// only way a waiter loses a lock — while every record stays right (c),
// and — across shards, where
// an epoch load racing a bump lets one sub-snapshot be a round older
// than its neighbour — a waiter stays on record behind a holder that no
// longer exists anywhere (d). In each the detector may act only on what
// validation confirms, and whatever it misses the next activation
// finds. Every scene starts with a holding x and b holding y, in
// different shards; two activations run, the mutation in the window of
// the first.
func TestValidateWindowActiveCopy(t *testing.T) {
	type outcome struct{ cycles, aborted, falseCycles int }
	bg := context.Background()
	// park blocks tx on r in a goroutine and returns where the result
	// of its Lock will arrive; finish lets a parked transaction end
	// whichever way the detector decided.
	park := func(t *testing.T, m *Manager, ctx context.Context, tx *Txn, r ResourceID) <-chan error {
		errc := make(chan error, 1)
		go func() { errc <- tx.Lock(ctx, r, X) }()
		waitBlocked(t, m, tx.ID())
		return errc
	}
	finish := func(t *testing.T, tx *Txn, errc <-chan error) {
		switch err := <-errc; {
		case err == nil:
			if err := tx.Commit(); err != nil {
				t.Error(err)
			}
		case errors.Is(err, ErrAborted):
			tx.Abort()
		default:
			t.Errorf("T%d's lock: %v", tx.ID(), err)
		}
	}
	for _, row := range []struct {
		name string
		// arrange builds the scene and returns the mutation for the first
		// activation's window (nil: the scene is already out of date) and
		// the unwinding that lets every transaction finish.
		arrange       func(t *testing.T, m *Manager, a, b *Txn, rs []ResourceID) (mutate, unwind func())
		first, second outcome
		journaled     int // resolutions on record after both activations
	}{
		{
			name: "a uncopied resource gets the waiter that closes the cycle",
			arrange: func(t *testing.T, m *Manager, a, b *Txn, rs []ResourceID) (func(), func()) {
				aErr := park(t, m, bg, a, rs[1])
				var bErr <-chan error
				// x is held and uncontended when its shard is copied: the
				// snapshot has half a cycle and no trace of x.
				return func() { bErr = park(t, m, bg, b, rs[0]) },
					func() { finish(t, a, aErr); finish(t, b, bErr) }
			},
			first:     outcome{0, 0, 0},
			second:    outcome{1, 1, 0},
			journaled: 1,
		},
		{
			name: "b copied resource drains",
			arrange: func(t *testing.T, m *Manager, a, b *Txn, rs []ResourceID) (func(), func()) {
				aErr := park(t, m, bg, a, rs[1])
				ctx, cancel := context.WithCancel(bg)
				bErr := park(t, m, ctx, b, rs[0])
				// b gives up: x keeps its holder and loses its queue, y
				// passes to a. Both copied records are now wrong.
				return func() {
					cancel()
					if err := <-bErr; !errors.Is(err, context.Canceled) {
						t.Errorf("b's lock = %v, want context.Canceled", err)
					}
				}, func() { finish(t, a, aErr) }
			},
			first:  outcome{1, 0, 1},
			second: outcome{0, 0, 0},
		},
		{
			name: "c only the held count of the victim is stale",
			arrange: func(t *testing.T, m *Manager, a, b *Txn, rs []ResourceID) (func(), func()) {
				// Locks nobody wants, in shards that hold nothing else of
				// their owners: a is the cheaper victim, 3+1 against 5+1.
				quiet := shardIndex(rs[2], m.mask)
				for i := 0; i < 2; i++ {
					mustLock(t, a, shardResource(t, m, quiet, 500+i))
				}
				for i := 0; i < 4; i++ {
					mustLock(t, b, shardResource(t, m, shardIndex(rs[3], m.mask), 500+i))
				}
				aErr := park(t, m, bg, a, rs[1])
				bErr := park(t, m, bg, b, rs[0])
				// What an abort's shard-by-shard sweep looks like when it
				// has reached only the quiet shard: a's two locks there are
				// gone, its place in the cycle is not.
				return func() {
						s := m.shards[quiet]
						s.mu.Lock()
						s.wakeGrants(s.tb.Abort(a.ID()))
						s.epoch.bump()
						s.mu.Unlock()
						if n := m.snap.HeldCount(a.ID()); n != 3 {
							t.Errorf("snapshot counts %d locks for the victim, want the 3 it held at copy time", n)
						}
					}, func() {
						if err := <-aErr; !errors.Is(err, ErrAborted) {
							t.Errorf("a's lock = %v, want it chosen on the copied counts and aborted", err)
						}
						a.Abort()
						finish(t, b, bErr)
					}
			},
			first:     outcome{1, 1, 0},
			second:    outcome{0, 0, 0},
			journaled: 1,
		},
		{
			name: "d stale sub-snapshot keeps a waiter behind a vanished holder",
			arrange: func(t *testing.T, m *Manager, a, b *Txn, rs []ResourceID) (func(), func()) {
				bErr := park(t, m, bg, b, rs[0])
				m.Detect() // x's shard is copied with b queued behind a
				sx := m.shards[shardIndex(rs[0], m.mask)]
				copied := sx.epoch.load()
				ctx, cancel := context.WithCancel(bg)
				aErr := park(t, m, ctx, a, rs[1]) // the cycle closes...
				cancel()                          // ...and a gives up: x passes to b
				if err := <-aErr; !errors.Is(err, context.Canceled) {
					t.Fatalf("a's lock = %v, want context.Canceled", err)
				}
				if err := <-bErr; err != nil {
					t.Fatalf("b's lock = %v, want x handed over", err)
				}
				// The detector's next load of x's shard epoch races those
				// bumps and sees the value it copied at; y's shard, copied
				// afresh, knows neither a nor any contention.
				sx.epoch.v.Store(copied)
				return nil, func() {
					sx.mu.Lock()
					sx.epoch.bump()
					sx.mu.Unlock()
					m.Detect()
					if rep := lastActivation(t, m); rep.Vertices != 0 {
						t.Errorf("graph still has %d vertices once the stale shard is recopied", rep.Vertices)
					}
					if err := b.Commit(); err != nil {
						t.Error(err)
					}
				}
			},
			first:  outcome{0, 0, 0},
			second: outcome{0, 0, 0},
		},
	} {
		t.Run(row.name, func(t *testing.T) {
			m := Open(Options{Shards: 4, audit: true})
			defer m.Close()
			rs := distinctShardResources(t, m, 4)
			a, b := m.Begin(), m.Begin()
			mustLock(t, a, rs[0])
			mustLock(t, b, rs[1])
			mutate, unwind := row.arrange(t, m, a, b, rs)

			m.testHookAfterCopy = mutate
			st := m.Detect()
			m.testHookAfterCopy = nil
			if got := (outcome{st.CyclesSearched, st.Aborted, st.FalseCycles}); got != row.first || st.Repositioned != 0 {
				t.Errorf("first activation = %+v, want cycles/aborted/false = %+v", st, row.first)
			}
			// Every scene shows the detector two transactions, whether
			// they are both still there or not.
			if rep := lastActivation(t, m); rep.Vertices != 2 {
				t.Errorf("first activation's graph has %d vertices, want 2", rep.Vertices)
			}
			st = m.Detect()
			if got := (outcome{st.CyclesSearched, st.Aborted, st.FalseCycles}); got != row.second || st.Repositioned != 0 {
				t.Errorf("second activation = %+v, want cycles/aborted/false = %+v", st, row.second)
			}
			if evs := decisions(t, m); len(evs) != row.journaled {
				t.Errorf("%d resolutions journaled, want %d: %v", len(evs), row.journaled, evs)
			}
			unwind()
			if m.Deadlocked() {
				t.Errorf("deadlock left behind:\n%s", m.Snapshot())
			}
			assertAuditClean(t, m)
		})
	}
}

func mustLock(t *testing.T, tx *Txn, r ResourceID) {
	t.Helper()
	if err := tx.Lock(context.Background(), r, X); err != nil {
		t.Fatal(err)
	}
}

// TestValidateEdgeRules asks validation about each edge one resource
// can be said to induce, on a live queue where it matters which waiter
// conflicts first: A is held in X by T1, with T2 (X) and T3 (X) queued
// behind it. Validation confirms exactly what Step 1 would wire — the
// ECR-2 edge to the first conflicting waiter and the W edge down the
// queue — and nothing else, an edge to a conflicting waiter further
// back included.
func TestValidateEdgeRules(t *testing.T) {
	m := Open(Options{Shards: 1})
	defer m.Close()
	bg := context.Background()
	t1, t2, t3 := m.Begin(), m.Begin(), m.Begin()
	if err := t1.Lock(bg, "A", X); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	for _, tx := range []*Txn{t2, t3} {
		go func() { errs <- tx.Lock(bg, "A", X) }()
		waitBlocked(t, m, tx.ID())
	}
	id1, id2, id3 := t1.ID(), t2.ID(), t3.ID()
	for _, c := range []struct {
		e    detect.CycleEdge
		want bool
	}{
		{detect.CycleEdge{From: id1, To: id2, Resource: "A"}, true},           // ECR-2: the first conflicting waiter
		{detect.CycleEdge{From: id1, To: id3, Resource: "A"}, false},          // a conflicting waiter, but not the first
		{detect.CycleEdge{From: id2, To: id3, Resource: "A", Mode: X}, true},  // ECR-3
		{detect.CycleEdge{From: id2, To: id3, Resource: "A", Mode: S}, false}, // ECR-3 in a mode T2 does not wait in
		{detect.CycleEdge{From: id3, To: id2, Resource: "A", Mode: X}, false}, // against the queue's order
		{detect.CycleEdge{From: id2, To: id1, Resource: "A"}, false},          // no rule points a waiter at the holder
		{detect.CycleEdge{From: id1, To: id2, Resource: "B"}, false},          // no such resource
	} {
		s := m.shardFor("A")
		s.mu.Lock()
		got := m.cycleHolds([]detect.CycleEdge{c.e})
		s.mu.Unlock()
		if got != c.want {
			t.Errorf("edge %+v holds = %v, want %v", c.e, got, c.want)
		}
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if err := t3.Commit(); err != nil {
		t.Fatal(err)
	}
}
