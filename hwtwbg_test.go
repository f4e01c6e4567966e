package hwtwbg

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hwtwbg/internal/twbg"
	"hwtwbg/journal"
)

// waitBlocked polls until id is blocked (test orchestration helper).
func waitBlocked(t *testing.T, m *Manager, id TxnID) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !m.Blocked(id) {
		if time.Now().After(deadline) {
			t.Fatalf("T%d never blocked", id)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestBasicLockCommit(t *testing.T) {
	m := Open(Options{})
	defer m.Close()
	tx := m.Begin()
	if err := tx.Lock(context.Background(), "a", S); err != nil {
		t.Fatal(err)
	}
	if err := tx.Lock(context.Background(), "b", X); err != nil {
		t.Fatal(err)
	}
	held := tx.Held()
	if len(held) != 2 || held[0] != "a" || held[1] != "b" {
		t.Fatalf("held = %v", held)
	}
	if tx.Mode("a") != S || tx.Mode("b") != X || tx.Mode("c") != NL {
		t.Fatal("modes wrong")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrDone) {
		t.Fatalf("second commit: %v", err)
	}
	if err := tx.Lock(context.Background(), "a", S); !errors.Is(err, ErrDone) {
		t.Fatalf("lock after commit: %v", err)
	}
	if err := tx.Err(); !errors.Is(err, ErrDone) {
		t.Fatalf("Err() = %v", err)
	}
}

func TestBlockAndGrant(t *testing.T) {
	m := Open(Options{})
	defer m.Close()
	a := m.Begin()
	b := m.Begin()
	if err := a.Lock(context.Background(), "r", X); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- b.Lock(context.Background(), "r", S)
	}()
	waitBlocked(t, m, b.ID())
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("b.Lock: %v", err)
	}
	if b.Mode("r") != S {
		t.Fatalf("b holds %v", b.Mode("r"))
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockResolvedByBackgroundDetector(t *testing.T) {
	var victims atomic.Int32
	m := Open(Options{
		Period:   2 * time.Millisecond,
		OnVictim: func(TxnID) { victims.Add(1) },
	})
	defer m.Close()
	a := m.Begin()
	b := m.Begin()
	ctx := context.Background()
	if err := a.Lock(ctx, "x", X); err != nil {
		t.Fatal(err)
	}
	if err := b.Lock(ctx, "y", X); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	go func() { errs <- a.Lock(ctx, "y", X) }()
	go func() { errs <- b.Lock(ctx, "x", X) }()
	e1, e2 := <-errs, <-errs
	// Exactly one of the two must have been aborted.
	aborted := 0
	if errors.Is(e1, ErrAborted) {
		aborted++
	}
	if errors.Is(e2, ErrAborted) {
		aborted++
	}
	if aborted != 1 {
		t.Fatalf("errors: %v / %v, want exactly one ErrAborted", e1, e2)
	}
	// OnVictim fires outside all locks, after the victim has been woken,
	// so its owner can get here first.
	for deadline := time.Now().Add(5 * time.Second); victims.Load() == 0 && time.Now().Before(deadline); {
		time.Sleep(100 * time.Microsecond)
	}
	if victims.Load() != 1 {
		t.Fatalf("OnVictim called %d times", victims.Load())
	}
	st := m.MetricsSnapshot().Detector
	if st.Aborted != 1 || st.Runs == 0 {
		t.Fatalf("stats = %+v", st)
	}
	// The survivor can finish.
	for _, tx := range []*Txn{a, b} {
		if tx.Err() == nil {
			if err := tx.Commit(); err != nil {
				t.Fatalf("survivor commit: %v", err)
			}
		}
	}
}

func TestManualDetectAndTDR2(t *testing.T) {
	// Build Example 5.1's shape of problem through the public API using
	// three goroutines, resolve with a manual Detect, and check the
	// reposition-free path (this scenario resolves by abort) plus a
	// TDR-2 scenario (queue reorder, nobody dies).
	m := Open(Options{}) // no background detector
	defer m.Close()
	ctx := context.Background()

	// TDR-2 scenario: T1 holds IS on q; T2 queues X; T3 queues IS and
	// then T1 upgrades to S... simpler: reuse the structure where an
	// incompatible head blocks a compatible waiter that a cycle runs
	// through. We reproduce Example 4.1's R2 in miniature:
	//   holder T1(IS); queue: T2(X), T3(S); T3 also holds "h" which T1
	//   wants.
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
	go func() { lockErr <- t1.Lock(ctx, "h", S) }() // closes the cycle T1->T3->(queue)->T1
	waitBlocked(t, m, t1.ID())
	if !m.Deadlocked() {
		t.Fatalf("expected deadlock:\n%s", m.Snapshot())
	}
	st := m.Detect()
	if st.Repositioned != 1 || st.Aborted != 0 {
		t.Fatalf("activation = %+v, want one repositioning and no aborts\n%s", st, m.Snapshot())
	}
	if m.Deadlocked() {
		t.Fatalf("deadlock remains:\n%s", m.Snapshot())
	}
	// T3's S on q must now be granted (it moved ahead of T2's X).
	if err := <-lockErr; err != nil {
		t.Fatalf("first unblocked lock: %v", err)
	}
	if t3.Mode("q") != S {
		t.Fatalf("t3 q mode = %v\n%s", t3.Mode("q"), m.Snapshot())
	}
	// Unwind: t3 commits, freeing h for t1; then t1 commits freeing q
	// for t2.
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
}

func TestContextCancelAbortsTransaction(t *testing.T) {
	m := Open(Options{})
	defer m.Close()
	a := m.Begin()
	b := m.Begin()
	if err := a.Lock(context.Background(), "r", X); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- b.Lock(ctx, "r", X) }()
	waitBlocked(t, m, b.ID())
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	// b is aborted entirely.
	if err := b.Err(); !errors.Is(err, ErrAborted) {
		t.Fatalf("b.Err() = %v", err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestTryLock(t *testing.T) {
	m := Open(Options{})
	defer m.Close()
	a := m.Begin()
	b := m.Begin()
	ok, err := a.TryLock("r", X)
	if err != nil || !ok {
		t.Fatalf("a: %v %v", ok, err)
	}
	ok, err = b.TryLock("r", S)
	if err != nil || ok {
		t.Fatalf("b must be refused: %v %v", ok, err)
	}
	if m.Blocked(b.ID()) {
		t.Fatal("TryLock must not queue")
	}
	// Covered re-request succeeds trivially.
	ok, err = a.TryLock("r", S)
	if err != nil || !ok {
		t.Fatalf("covered: %v %v", ok, err)
	}
	// Upgrade probe: b holds nothing; a holds X; new resource works.
	ok, err = b.TryLock("other", IX)
	if err != nil || !ok {
		t.Fatalf("other: %v %v", ok, err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	ok, err = b.TryLock("r", S)
	if err != nil || !ok {
		t.Fatalf("after commit: %v %v", ok, err)
	}
	b.Abort()
	if _, err := b.TryLock("r", S); !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v", err)
	}
}

func TestAbortWakesWaiters(t *testing.T) {
	m := Open(Options{})
	defer m.Close()
	a := m.Begin()
	b := m.Begin()
	if err := a.Lock(context.Background(), "r", X); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- b.Lock(context.Background(), "r", X) }()
	waitBlocked(t, m, b.ID())
	a.Abort()
	if err := <-done; err != nil {
		t.Fatalf("b.Lock after a.Abort: %v", err)
	}
	a.Abort() // double abort is a no-op
	if err := a.Err(); !errors.Is(err, ErrAborted) {
		t.Fatalf("a.Err() = %v", err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestCloseAbortsEverything(t *testing.T) {
	m := Open(Options{Period: time.Millisecond})
	a := m.Begin()
	b := m.Begin()
	if err := a.Lock(context.Background(), "r", X); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- b.Lock(context.Background(), "r", X) }()
	waitBlocked(t, m, b.ID())
	m.Close()
	if err := <-done; !errors.Is(err, ErrAborted) {
		t.Fatalf("waiter after Close: %v", err)
	}
	if err := a.Lock(context.Background(), "s", S); !errors.Is(err, ErrAborted) && !errors.Is(err, ErrClosed) {
		t.Fatalf("lock after Close: %v", err)
	}
	tx := m.Begin()
	if err := tx.Lock(context.Background(), "s", S); !errors.Is(err, ErrClosed) {
		t.Fatalf("new txn after Close: %v", err)
	}
	m.Close() // double close is a no-op
	if st := m.Detect(); st != (Stats{}) {
		t.Fatalf("Detect after Close = %+v", st)
	}
}

func TestSnapshotAndDOT(t *testing.T) {
	m := Open(Options{})
	defer m.Close()
	a := m.Begin()
	if err := a.Lock(context.Background(), "acct", S); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m.Snapshot(), "acct(S)") {
		t.Errorf("Snapshot:\n%s", m.Snapshot())
	}
	if !strings.Contains(m.DOT(), "digraph HWTWBG") {
		t.Errorf("DOT:\n%s", m.DOT())
	}
	if !strings.Contains(m.String(), "hwtwbg.Manager") {
		t.Errorf("String: %s", m.String())
	}
}

func TestModeHelpers(t *testing.T) {
	if !Comp(S, IS) || Comp(IX, SIX) {
		t.Error("Comp re-export wrong")
	}
	if Conv(IX, S) != SIX {
		t.Error("Conv re-export wrong")
	}
	got, err := ParseMode("SIX")
	if err != nil || got != SIX {
		t.Errorf("ParseMode = %v, %v", got, err)
	}
	if _, err := ParseMode("nah"); err == nil {
		t.Error("ParseMode must reject garbage")
	}
}

// TestStress hammers the manager from many goroutines with a fast
// detector; run with -race. Every transaction eventually commits or is
// retried after victimization; at the end nothing is deadlocked.
func TestStress(t *testing.T) {
	m := Open(Options{Period: time.Millisecond})
	defer m.Close()
	const workers = 16
	const txnsPerWorker = 30
	var wg sync.WaitGroup
	var commits, victimRetries atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < txnsPerWorker; i++ {
			retry:
				tx := m.Begin()
				n := 2 + rng.Intn(3)
				for j := 0; j < n; j++ {
					r := ResourceID(fmt.Sprintf("r%d", rng.Intn(6)))
					mode := S
					if rng.Intn(2) == 0 {
						mode = X
					}
					if err := tx.Lock(context.Background(), r, mode); err != nil {
						if errors.Is(err, ErrAborted) {
							victimRetries.Add(1)
							goto retry
						}
						t.Errorf("lock: %v", err)
						return
					}
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
				commits.Add(1)
			}
		}(int64(w + 1))
	}
	wg.Wait()
	if got := commits.Load(); got != workers*txnsPerWorker {
		t.Fatalf("commits = %d, want %d", got, workers*txnsPerWorker)
	}
	if m.Deadlocked() {
		t.Fatal("deadlock at end of stress run")
	}
	t.Logf("stress: %d commits, %d victim retries, stats %+v",
		commits.Load(), victimRetries.Load(), m.MetricsSnapshot().Detector)
}

func TestConversionThroughPublicAPI(t *testing.T) {
	m := Open(Options{Period: time.Millisecond})
	defer m.Close()
	ctx := context.Background()
	a := m.Begin()
	b := m.Begin()
	if err := a.Lock(ctx, "r", S); err != nil {
		t.Fatal(err)
	}
	if err := b.Lock(ctx, "r", S); err != nil {
		t.Fatal(err)
	}
	// Both upgrade to X: a conversion deadlock the detector must break.
	errs := make(chan error, 2)
	go func() { errs <- a.Lock(ctx, "r", X) }()
	go func() { errs <- b.Lock(ctx, "r", X) }()
	e1, e2 := <-errs, <-errs
	okCount, abortCount := 0, 0
	for _, e := range []error{e1, e2} {
		switch {
		case e == nil:
			okCount++
		case errors.Is(e, ErrAborted):
			abortCount++
		default:
			t.Fatalf("unexpected error: %v", e)
		}
	}
	if okCount != 1 || abortCount != 1 {
		t.Fatalf("e1=%v e2=%v", e1, e2)
	}
	for _, tx := range []*Txn{a, b} {
		if tx.Err() == nil {
			if tx.Mode("r") != X {
				t.Fatalf("survivor mode = %v", tx.Mode("r"))
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestHistory(t *testing.T) {
	m := Open(Options{})
	defer m.Close()
	// Generate three deadlocks sequentially.
	for i := 0; i < 3; i++ {
		deadlockOnce(t, m, i)
	}
	events := decisions(t, m)
	if len(events) != 3 {
		t.Fatalf("decisions = %+v, want 3", events)
	}
	for i, e := range events {
		if e.Kind != journal.KindVictim.String() || e.Txn == 0 || e.Time.IsZero() || e.Activation != i+1 {
			t.Fatalf("bad event %+v", e)
		}
	}
}

// liveEdges builds the H/W-TWBG over the stopped world, as DOT does.
func liveEdges(m *Manager) []twbg.Edge {
	m.stopTheWorld()
	defer m.resumeTheWorld()
	return twbg.Build(m.mt).Edges()
}

// TestEdgesExport checks the live graph a blocked request induces: one
// H edge from the holder to the waiter, which DOT renders, and none
// once the wait is granted.
func TestEdgesExport(t *testing.T) {
	m := Open(Options{})
	defer m.Close()
	a := m.Begin()
	b := m.Begin()
	if err := a.Lock(context.Background(), "r", X); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- b.Lock(context.Background(), "r", S) }()
	waitBlocked(t, m, b.ID())
	edges := liveEdges(m)
	if len(edges) != 1 {
		t.Fatalf("edges = %v", edges)
	}
	e := edges[0]
	if e.From != a.ID() || e.To != b.ID() || e.Resource != "r" || e.Label != twbg.H {
		t.Fatalf("edge = %+v", e)
	}
	if dot := m.DOT(); !strings.Contains(dot, fmt.Sprintf("T%d -> T%d", a.ID(), b.ID())) {
		t.Fatalf("DOT lacks the edge:\n%s", dot)
	}
	a.Commit()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := liveEdges(m); len(got) != 0 {
		t.Fatalf("edges after grant = %v", got)
	}
	b.Commit()
}
