// Tests for the sharded facade: cross-shard deadlock detection and
// resolution (TDR-1 and TDR-2), equivalence of the sharded detector
// with the single-table one, shard-count plumbing, per-shard counters,
// and a -race stress test hammering the public API across shards.
package hwtwbg

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hwtwbg/internal/jview"
)

// distinctShardResources returns n resource ids that all land in
// different shards of m, so a test can build a cycle that provably
// spans shards.
func distinctShardResources(t *testing.T, m *Manager, n int) []ResourceID {
	t.Helper()
	if m.NumShards() < n {
		t.Fatalf("need %d shards, manager has %d", n, m.NumShards())
	}
	var out []ResourceID
	used := make(map[uint32]bool)
	for i := 0; len(out) < n; i++ {
		r := ResourceID(fmt.Sprintf("res-%d", i))
		if idx := shardIndex(r, m.mask); !used[idx] {
			used[idx] = true
			out = append(out, r)
		}
		if i > 1<<16 {
			t.Fatal("could not find resources in distinct shards")
		}
	}
	return out
}

func TestShardOptionRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {9, 16},
	} {
		m := Open(Options{Shards: tc.in})
		if got := m.NumShards(); got != tc.want {
			t.Errorf("Shards:%d -> NumShards %d, want %d", tc.in, got, tc.want)
		}
		m.Close()
	}
	m := Open(Options{}) // default: derived from GOMAXPROCS, at least 1
	if m.NumShards() < 1 {
		t.Fatalf("default NumShards = %d", m.NumShards())
	}
	m.Close()
}

// TestCrossShardDeadlockTDR1 builds the classic two-transaction cycle
// over resources that hash to different shards and checks that one
// periodic activation finds it and aborts a victim (TDR-1).
func TestCrossShardDeadlockTDR1(t *testing.T) {
	m := Open(Options{Shards: 8})
	defer m.Close()
	rs := distinctShardResources(t, m, 2)
	x, y := rs[0], rs[1]
	ctx := context.Background()

	a, b := m.Begin(), m.Begin()
	if err := a.Lock(ctx, x, X); err != nil {
		t.Fatal(err)
	}
	if err := b.Lock(ctx, y, X); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	go func() { errs <- a.Lock(ctx, y, X) }()
	waitBlocked(t, m, a.ID())
	go func() { errs <- b.Lock(ctx, x, X) }()
	waitBlocked(t, m, b.ID())

	if !m.Deadlocked() {
		t.Fatalf("expected cross-shard deadlock:\n%s", m.Snapshot())
	}
	st := m.Detect()
	if st.Aborted != 1 || st.Repositioned != 0 {
		t.Fatalf("activation = %+v, want one abort\n%s", st, m.Snapshot())
	}
	if st.ShardHoldLast <= 0 || st.ShardHoldLast != st.ShardHoldMax {
		t.Fatalf("activation shard-hold fields inconsistent: %+v", st)
	}
	if m.Deadlocked() {
		t.Fatalf("deadlock remains:\n%s", m.Snapshot())
	}
	e1, e2 := <-errs, <-errs
	aborted := 0
	if errors.Is(e1, ErrAborted) {
		aborted++
	}
	if errors.Is(e2, ErrAborted) {
		aborted++
	}
	if aborted != 1 {
		t.Fatalf("lock errors %v / %v, want exactly one ErrAborted", e1, e2)
	}
	for _, tx := range []*Txn{a, b} {
		if tx.Err() == nil {
			if err := tx.Commit(); err != nil {
				t.Fatalf("survivor commit: %v", err)
			}
		}
	}
}

// TestCrossShardDeadlockTDR2 reproduces the queue-repositioning
// scenario of TestManualDetectAndTDR2, but with the two resources
// placed in different shards: the junction's AV/ST surgery must land in
// the owning shard and nobody dies.
func TestCrossShardDeadlockTDR2(t *testing.T) {
	m := Open(Options{Shards: 8})
	defer m.Close()
	rs := distinctShardResources(t, m, 2)
	q, h := rs[0], rs[1]
	ctx := context.Background()

	// Holder T1(IS) on q; queue on q: T2(X), T3(S); T3 holds h, which
	// T1 wants — the cycle runs through two shards.
	t1, t2, t3 := m.Begin(), m.Begin(), m.Begin()
	if err := t1.Lock(ctx, q, IS); err != nil {
		t.Fatal(err)
	}
	if err := t3.Lock(ctx, h, X); err != nil {
		t.Fatal(err)
	}
	lockErr := make(chan error, 3)
	go func() { lockErr <- t2.Lock(ctx, q, X) }()
	waitBlocked(t, m, t2.ID())
	go func() { lockErr <- t3.Lock(ctx, q, S) }()
	waitBlocked(t, m, t3.ID())
	go func() { lockErr <- t1.Lock(ctx, h, S) }()
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
	if err := <-lockErr; err != nil {
		t.Fatalf("first unblocked lock: %v", err)
	}
	if t3.Mode(q) != S {
		t.Fatalf("t3 q mode = %v\n%s", t3.Mode(q), m.Snapshot())
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
}

// runShardScenario drives one manager through a fixed deadlock
// tableau — a TDR-2 junction on q/h plus a plain two-cycle on x/y with
// asymmetric held counts (so the cost metric picks a unique victim) —
// runs one activation, and reports what the detector decided.
func runShardScenario(t *testing.T, shards int) (victims []TxnID, activation Stats, events []jview.Resolution, snapshot string) {
	t.Helper()
	var mu sync.Mutex
	m := Open(Options{
		Shards:   shards,
		OnVictim: func(id TxnID) { mu.Lock(); victims = append(victims, id); mu.Unlock() },
	})
	defer m.Close()
	ctx := context.Background()

	// Same Begin order on every run: ids are assigned by a global
	// counter, so T1..T5 are identical across managers.
	t1, t2, t3 := m.Begin(), m.Begin(), m.Begin() // TDR-2 cast
	t4, t5 := m.Begin(), m.Begin()                // TDR-1 cast

	// TDR-2 tableau (see TestCrossShardDeadlockTDR2). With 8 shards,
	// "q" and "h" land in shards 0 and 3 and "x"/"y" in 3 and 0, so
	// both cycles genuinely span shards.
	if err := t1.Lock(ctx, "q", IS); err != nil {
		t.Fatal(err)
	}
	if err := t3.Lock(ctx, "h", X); err != nil {
		t.Fatal(err)
	}
	spawn := func(tx *Txn, r ResourceID, mode Mode) chan error {
		ch := make(chan error, 1)
		go func() { ch <- tx.Lock(ctx, r, mode) }()
		waitBlocked(t, m, tx.ID())
		return ch
	}
	c2 := spawn(t2, "q", X)
	c3 := spawn(t3, "q", S)
	c1 := spawn(t1, "h", S)

	// TDR-1 tableau: t4 holds two extra locks so cost(t4)=4 > cost(t5)=2
	// and the detector must always pick t5.
	if err := t4.Lock(ctx, "x", X); err != nil {
		t.Fatal(err)
	}
	if err := t4.Lock(ctx, "pad1", S); err != nil {
		t.Fatal(err)
	}
	if err := t4.Lock(ctx, "pad2", S); err != nil {
		t.Fatal(err)
	}
	if err := t5.Lock(ctx, "y", X); err != nil {
		t.Fatal(err)
	}
	c4 := spawn(t4, "y", X)
	c5 := spawn(t5, "x", X)

	activation = m.Detect()
	snapshot = m.Snapshot()
	events = decisions(t, m)

	// Unwind: the reposition granted t3's S on q, the abort of t5 freed
	// y for t4; committing in dependency order drains the rest.
	if err := <-c3; err != nil {
		t.Fatalf("t3's repositioned lock: %v", err)
	}
	if err := <-c5; !errors.Is(err, ErrAborted) {
		t.Fatalf("t5's lock: %v, want ErrAborted", err)
	}
	if err := <-c4; err != nil {
		t.Fatalf("t4's lock: %v", err)
	}
	if err := t4.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t3.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-c1; err != nil {
		t.Fatalf("t1's lock: %v", err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-c2; err != nil {
		t.Fatalf("t2's lock: %v", err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	return victims, activation, events, snapshot
}

// TestShardedMatchesSerialDetector is the acceptance criterion for
// paper fidelity: on the same logical state, a 1-shard manager and an
// 8-shard manager must make identical victim and TDR-2 choices and
// leave identical lock tables behind.
func TestShardedMatchesSerialDetector(t *testing.T) {
	v1, a1, e1, s1 := runShardScenario(t, 1)
	v8, a8, e8, s8 := runShardScenario(t, 8)

	if a1.Aborted != 1 || a1.Repositioned != 1 {
		t.Fatalf("serial activation = %+v, want 1 abort + 1 reposition", a1)
	}
	if a8.Aborted != a1.Aborted || a8.Repositioned != a1.Repositioned ||
		a8.Salvaged != a1.Salvaged || a8.CyclesSearched != a1.CyclesSearched {
		t.Fatalf("activations differ: serial %+v vs sharded %+v", a1, a8)
	}
	if len(v1) != 1 || len(v8) != 1 || v1[0] != v8[0] {
		t.Fatalf("victims differ: serial %v vs sharded %v", v1, v8)
	}
	if v1[0] != 5 {
		t.Fatalf("victim = T%d, want the cheaper T5", v1[0])
	}
	if len(e1) != 2 || len(e1) != len(e8) {
		t.Fatalf("decision counts: serial %d, sharded %d, want 2 each", len(e1), len(e8))
	}
	for i := range e1 {
		if e1[i].Kind != e8[i].Kind || e1[i].Txn != e8[i].Txn || e1[i].Resource != e8[i].Resource {
			t.Fatalf("decision[%d] differs: serial %+v vs sharded %+v", i, e1[i], e8[i])
		}
	}
	if s1 != s8 {
		t.Fatalf("post-resolution snapshots differ:\nserial:\n%s\nsharded:\n%s", s1, s8)
	}
}

// TestShardStatsCountGrants checks the per-shard grant counters: every
// successful Lock is exactly one grant in exactly one shard.
func TestShardStatsCountGrants(t *testing.T) {
	m := Open(Options{Shards: 4})
	defer m.Close()
	ctx := context.Background()
	const txns, locks = 20, 5
	for i := 0; i < txns; i++ {
		tx := m.Begin()
		for j := 0; j < locks; j++ {
			if err := tx.Lock(ctx, ResourceID(fmt.Sprintf("g-%d-%d", i, j)), X); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	ss := m.ShardStats()
	if len(ss) != 4 {
		t.Fatalf("len(ShardStats) = %d", len(ss))
	}
	var total uint64
	spread := 0
	for _, s := range ss {
		total += s.Grants
		if s.Grants > 0 {
			spread++
		}
	}
	if total != txns*locks {
		t.Fatalf("total grants = %d, want %d", total, txns*locks)
	}
	if spread < 2 {
		t.Fatalf("all grants landed in %d shard(s); striping broken", spread)
	}
}

// TestBeginIDsUnique: Begin is a bare atomic increment; concurrent
// Begins must still hand out unique ids.
func TestBeginIDsUnique(t *testing.T) {
	m := Open(Options{Shards: 4})
	defer m.Close()
	const goroutines, per = 16, 200
	ids := make([]TxnID, goroutines*per)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				ids[g*per+i] = m.Begin().ID()
			}
		}(g)
	}
	wg.Wait()
	seen := make(map[TxnID]bool, len(ids))
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate txn id %d", id)
		}
		seen[id] = true
	}
}

// TestCrossShardStress hammers Lock/TryLock/Commit/Abort across shards
// from many goroutines with a fast background detector, then Closes the
// manager under fire. Run with -race; the assertions are deliberately
// weak — the point is the interleaving, and that every transaction
// terminates.
func TestCrossShardStress(t *testing.T) {
	m := Open(Options{Period: 500 * time.Microsecond, Shards: 8})
	const workers = 12
	deadline := time.Now().Add(100 * time.Millisecond)
	var commits, aborts atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			ctx := context.Background()
			for time.Now().Before(deadline) {
				tx := m.Begin()
				alive := true
				for i, n := 0, 1+rng.Intn(4); i < n && alive; i++ {
					r := ResourceID(fmt.Sprintf("k%d", rng.Intn(24)))
					mode := X
					if rng.Intn(2) == 0 {
						mode = S
					}
					if rng.Intn(8) == 0 {
						if _, err := tx.TryLock(r, mode); err != nil {
							alive = false
						}
						continue
					}
					if err := tx.Lock(ctx, r, mode); err != nil {
						alive = false // victim, cancelled, or manager closed
					}
				}
				if alive && rng.Intn(10) == 0 {
					tx.Abort()
					aborts.Add(1)
					continue
				}
				if alive {
					if err := tx.Commit(); err == nil {
						commits.Add(1)
					}
				}
			}
		}(w)
	}
	// Diagnostics hammer alongside the workers: manual activations and
	// stop-the-world snapshots must interleave safely with everything.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			m.Detect()
			_ = m.Snapshot()
			_ = m.Deadlocked()
			_ = m.DOT()
			_ = m.ShardStats()
			time.Sleep(200 * time.Microsecond)
		}
	}()
	wg.Wait()
	if commits.Load() == 0 {
		t.Fatal("no transaction ever committed under stress")
	}
	// Everyone is done; the table must be empty (strict 2PL: every
	// terminated transaction released everything).
	if snap := m.Snapshot(); snap != "" {
		t.Fatalf("residual lock state after stress:\n%s", snap)
	}
	st := m.MetricsSnapshot().Detector
	if st.Runs == 0 || st.ShardHoldMax <= 0 {
		t.Fatalf("detector never ran? stats = %+v", st)
	}
	m.Close()
	// After Close everything errors cleanly.
	tx := m.Begin()
	if err := tx.Lock(context.Background(), "post", X); !errors.Is(err, ErrClosed) {
		t.Fatalf("lock after close: %v", err)
	}
}

// TestCloseUnderFire closes the manager while workers are mid-flight
// and checks every Lock returns promptly with a terminal error: the
// ones already blocked, and the ones racing Close to enqueue. A request
// checks liveness and enqueues in one shard-mutex round, so Close
// either finds it waiting or it finds the manager closed; one that
// slipped in after Close's sweep would be granted the lock Close just
// freed, or wait forever behind one that was.
func TestCloseUnderFire(t *testing.T) {
	m := Open(Options{Shards: 8})
	ctx := context.Background()
	holder := m.Begin()
	if err := holder.Lock(ctx, "gate", X); err != nil {
		t.Fatal(err)
	}
	const blocked, racing = 8, 8
	errs := make(chan error, blocked+racing)
	for i := 0; i < blocked; i++ {
		tx := m.Begin()
		go func() { errs <- tx.Lock(ctx, "gate", S) }()
		waitBlocked(t, m, tx.ID())
	}
	var started sync.WaitGroup
	for i := 0; i < racing; i++ {
		tx := m.Begin()
		started.Add(1)
		go func() {
			started.Done()
			errs <- tx.Lock(ctx, "gate", S)
		}()
	}
	started.Wait()
	m.Close()
	for i := 0; i < blocked+racing; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrAborted) && !errors.Is(err, ErrClosed) {
				t.Fatalf("lock returned %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a Lock did not return after Close")
		}
	}
}
