// Tests for the group-acquisition path (LockAll) and transaction
// recycling: unit coverage of partial blocking and error handling, a
// mutex-round accounting check, differential
// equivalence of batched vs sequential acquisition under both
// detectors, and -race hammers mixing batched and single requests with
// the invariant auditor armed.
package hwtwbg

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hwtwbg/internal/table"
)

func TestLockAllBasic(t *testing.T) {
	m := Open(Options{Shards: 4, audit: true})
	defer m.Close()
	ctx := context.Background()
	tx := m.Begin()
	reqs := []LockRequest{
		{Resource: "b", Mode: S},
		{Resource: "a", Mode: IX},
		{Resource: "c", Mode: X},
		{Resource: "a", Mode: X}, // in-batch conversion: IX then X on "a"
	}
	if err := tx.LockAll(ctx, reqs); err != nil {
		t.Fatal(err)
	}
	held := tx.Held()
	if len(held) != 3 {
		t.Fatalf("held = %v, want 3 resources", held)
	}
	if tx.Mode("a") != X || tx.Mode("b") != S || tx.Mode("c") != X {
		t.Fatalf("modes = %v/%v/%v", tx.Mode("a"), tx.Mode("b"), tx.Mode("c"))
	}
	// Re-requesting held locks through another batch must be idempotent.
	if err := tx.LockAll(ctx, reqs); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	assertAuditClean(t, m)
}

// TestLockAllPartialBlock pins the mid-batch parking semantics: the
// batch grants up to the first conflicted request, parks there with
// exactly that one wait edge (Lemma 4.1), and resumes the remainder
// after the grant.
func TestLockAllPartialBlock(t *testing.T) {
	m := Open(Options{Shards: 1, audit: true})
	defer m.Close()
	ctx := context.Background()

	holder := m.Begin()
	if err := holder.Lock(ctx, "k1", X); err != nil {
		t.Fatal(err)
	}
	b := m.Begin()
	done := make(chan error, 1)
	go func() {
		done <- b.LockAll(ctx, []LockRequest{
			{Resource: "k0", Mode: X},
			{Resource: "k1", Mode: X},
			{Resource: "k2", Mode: X},
		})
	}()
	waitBlocked(t, m, b.ID())
	// Parked mid-batch: the prefix is held, the suffix untouched.
	if got := b.Mode("k0"); got != X {
		t.Fatalf("k0 mode while parked = %v, want X", got)
	}
	if got := b.Mode("k2"); got != NL {
		t.Fatalf("k2 acquired while parked on k1 (mode %v): more than one outstanding request", got)
	}
	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("batch did not resume after grant: %v", err)
	}
	for _, k := range []ResourceID{"k0", "k1", "k2"} {
		if b.Mode(k) != X {
			t.Fatalf("%s not held after resume", k)
		}
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	assertAuditClean(t, m)
}

func TestLockAllErrorPaths(t *testing.T) {
	ctx := context.Background()

	t.Run("done txn", func(t *testing.T) {
		m := Open(Options{Shards: 2})
		defer m.Close()
		tx := m.Begin()
		if err := tx.LockAll(ctx, nil); err != nil {
			t.Fatalf("empty batch on a live txn: %v", err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := tx.LockAll(ctx, nil); !errors.Is(err, ErrDone) {
			t.Fatalf("empty batch after commit: %v, want ErrDone", err)
		}
		one := []LockRequest{{Resource: "a", Mode: S}}
		if err := tx.LockAll(ctx, one); !errors.Is(err, ErrDone) {
			t.Fatalf("single-request batch after commit: %v, want ErrDone", err)
		}
	})

	t.Run("bad mode stops the batch", func(t *testing.T) {
		// One shard so the batch is applied in argument order.
		m := Open(Options{Shards: 1})
		defer m.Close()
		tx := m.Begin()
		err := tx.LockAll(ctx, []LockRequest{
			{Resource: "a", Mode: S},
			{Resource: "b", Mode: NL},
			{Resource: "c", Mode: X},
		})
		if err == nil {
			t.Fatal("NL mid-batch did not error")
		}
		// Earlier grants survive, exactly as with sequential Lock calls.
		if tx.Mode("a") != S || tx.Mode("c") != NL {
			t.Fatalf("after failed batch: a=%v c=%v", tx.Mode("a"), tx.Mode("c"))
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("cancellation while parked", func(t *testing.T) {
		m := Open(Options{Shards: 2})
		defer m.Close()
		holder := m.Begin()
		if err := holder.Lock(ctx, "c", X); err != nil {
			t.Fatal(err)
		}
		victim := m.Begin()
		cctx, cancel := context.WithCancel(ctx)
		defer cancel()
		done := make(chan error, 1)
		go func() {
			done <- victim.LockAll(cctx, []LockRequest{
				{Resource: "b", Mode: S},
				{Resource: "c", Mode: S},
			})
		}()
		waitBlocked(t, m, victim.ID())
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled batch: %v, want context.Canceled", err)
		}
		if err := victim.Err(); !errors.Is(err, ErrAborted) {
			t.Fatalf("victim.Err() = %v, want ErrAborted", err)
		}
		if err := holder.Commit(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestLockAllMutexRounds checks the batching claim directly: a batch of
// K same-shard requests costs one shard-mutex round, against K for the
// sequential path. MutexAcquires counts exactly the hot-path rounds, so
// on an otherwise idle manager the deltas are deterministic.
func TestLockAllMutexRounds(t *testing.T) {
	ctx := context.Background()
	const n = 8
	reqs := make([]LockRequest, n)
	for i := range reqs {
		reqs[i] = LockRequest{Resource: ResourceID(fmt.Sprintf("k%d", i)), Mode: X}
	}
	acquires := func(m *Manager) uint64 {
		var tot uint64
		for _, st := range m.ShardStats() {
			tot += st.MutexAcquires
		}
		return tot
	}

	mBat := Open(Options{Shards: 1})
	defer mBat.Close()
	tx := mBat.Begin()
	base := acquires(mBat)
	if err := tx.LockAll(ctx, reqs); err != nil {
		t.Fatal(err)
	}
	if got := acquires(mBat) - base; got != 1 {
		t.Fatalf("batched acquisition of %d keys took %d mutex rounds, want 1", n, got)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	mSeq := Open(Options{Shards: 1})
	defer mSeq.Close()
	tx = mSeq.Begin()
	base = acquires(mSeq)
	for _, r := range reqs {
		if err := tx.Lock(ctx, r.Resource, r.Mode); err != nil {
			t.Fatal(err)
		}
	}
	if got := acquires(mSeq) - base; got != n {
		t.Fatalf("sequential acquisition of %d keys took %d mutex rounds, want %d", n, got, n)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestLockAllOrder pins the acquisition order of a 1,000-request batch
// over 8 shards: every request once, by shard, and in argument order
// within a shard — what a stable sort by shard gives — and the batch
// takes its locks in that order.
func TestLockAllOrder(t *testing.T) {
	m := Open(Options{Shards: 8})
	defer m.Close()
	reqs := make([]LockRequest, 1000)
	for i := range reqs {
		reqs[i] = LockRequest{Resource: ResourceID(fmt.Sprintf("o%d", i)), Mode: X}
	}
	tx := m.Begin()
	ord := tx.batch.order(reqs, m.mask, len(m.shards))
	want := make([]batchEnt, len(reqs))
	for i := range reqs {
		want[i] = batchEnt{shard: shardIndex(reqs[i].Resource, m.mask), idx: int32(i)}
	}
	slices.SortStableFunc(want, func(a, b batchEnt) int { return cmp.Compare(a.shard, b.shard) })
	if !slices.Equal(ord, want) {
		t.Fatalf("order differs from the stable sort by shard:\n got %v\nwant %v", ord, want)
	}
	if want[0].shard == want[len(want)-1].shard {
		t.Fatalf("all 1000 requests on shard %d: the order tests nothing", want[0].shard)
	}

	if err := tx.LockAll(context.Background(), reqs); err != nil {
		t.Fatal(err)
	}
	// Held lists the shards in first-use order and each shard's locks
	// in grant order.
	held := tx.Held()
	if len(held) != len(want) {
		t.Fatalf("holds %d locks, want %d", len(held), len(want))
	}
	for i, e := range want {
		if held[i] != reqs[e.idx].Resource {
			t.Fatalf("lock %d taken was %s, want %s", i, held[i], reqs[e.idx].Resource)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestRecycle covers the transaction pool's safety latches: recycling a
// live transaction is a no-op, double recycling is harmless, and a
// recycled handle still answers (with ErrDone) rather than corrupting
// whatever transaction reused the memory.
func TestRecycle(t *testing.T) {
	m := Open(Options{})
	defer m.Close()
	ctx := context.Background()

	tx := m.Begin()
	tx.Recycle() // live: must be a no-op
	if err := tx.Lock(ctx, "a", X); err != nil {
		t.Fatalf("Lock after no-op Recycle: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	id := tx.ID()
	tx.Recycle()
	tx.Recycle() // double recycle must not double-pool

	tx2 := m.Begin()
	if tx2.ID() == id {
		t.Fatalf("recycled transaction reused id %d", id)
	}
	if err := tx2.Lock(ctx, "a", X); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2.Recycle()
}

// TestLockAllSequentialEquivalence is the batch path's differential
// harness: the same scripted acquisitions are issued through sequential
// Lock calls on one manager and through LockAll batches on another, and
// the two must be indistinguishable — byte-identical lock tables,
// identical detector decisions (victims, repositionings, salvages)
// under both the stop-the-world oracle and the production detector, and
// identical deadlock-event histories.
//
// The script is decided against a sequential oracle table: runs of
// immediately-grantable requests become batches (order within a batch
// is immaterial when everything grants, so batched and sequential
// application reach the same table), and each blocking request is
// issued solo from its own goroutine, exactly as in applyWorkload.
func TestLockAllSequentialEquivalence(t *testing.T) {
	modes := []Mode{IS, IX, S, SIX, X}
	totalCycles, totalAborts, totalBatches := 0, 0, 0
	for seed := int64(1); seed <= 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			nTxns := 4 + rng.Intn(6)
			nRes := 3 + rng.Intn(4)
			type group struct {
				txn int
				ops []LockRequest
			}
			script := make([]group, 12+rng.Intn(12))
			for i := range script {
				g := group{txn: rng.Intn(nTxns)}
				for j, n := 0, 1+rng.Intn(4); j < n; j++ {
					g.ops = append(g.ops, LockRequest{
						Resource: ResourceID(fmt.Sprintf("R%d", rng.Intn(nRes))),
						Mode:     modes[rng.Intn(len(modes))],
					})
				}
				script[i] = g
			}

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()

			// replay drives one manager through the script. The oracle
			// decisions depend only on the script, so every replay issues
			// the same effective sequence; batched switches grantable runs
			// from sequential Lock calls to LockAll.
			replay := func(batched bool) *Manager {
				m := Open(Options{Shards: 4, audit: true})
				oracle := table.New()
				txns := make([]*Txn, nTxns)
				for i := range txns {
					txns[i] = m.Begin()
				}
				issue := func(tx *Txn, run []LockRequest) {
					if len(run) == 0 {
						return
					}
					if batched {
						if len(run) > 1 {
							totalBatches++
						}
						if err := tx.LockAll(ctx, run); err != nil {
							t.Fatalf("LockAll(%v) should have granted: %v", run, err)
						}
						return
					}
					for _, op := range run {
						if err := tx.Lock(ctx, op.Resource, op.Mode); err != nil {
							t.Fatalf("Lock(%v, %s, %v) should have granted: %v", tx.ID(), op.Resource, op.Mode, err)
						}
					}
				}
				errs := make(chan error, len(script))
				for _, g := range script {
					tx := txns[g.txn]
					id := tx.ID()
					if oracle.Blocked(id) {
						continue // a blocked transaction cannot issue requests
					}
					var run []LockRequest
					for _, op := range g.ops {
						if oracle.WouldGrant(id, op.Resource, op.Mode) {
							if granted, err := oracle.Request(id, op.Resource, op.Mode); err != nil || !granted {
								t.Fatalf("oracle WouldGrant/Request disagree on %v %s %v: %v/%v",
									id, op.Resource, op.Mode, granted, err)
							}
							run = append(run, op)
							continue
						}
						// First blocker ends the group: flush the grantable
						// prefix, park the blocker solo, drop the rest.
						issue(tx, run)
						run = nil
						if _, err := oracle.Request(id, op.Resource, op.Mode); err != nil {
							break // oracle refused (e.g. bad mode); skip everywhere
						}
						op := op
						go func() { errs <- tx.Lock(ctx, op.Resource, op.Mode) }()
						waitBlocked(t, m, id)
						break
					}
					issue(tx, run)
				}
				return m
			}

			ms := map[string]*Manager{
				"seq/stw":  replay(false),
				"bat/stw":  replay(true),
				"seq/snap": replay(false),
				"bat/snap": replay(true),
			}
			detect := map[string]func() Stats{
				"seq/stw":  newSTWOracle(ms["seq/stw"]).Detect,
				"bat/stw":  newSTWOracle(ms["bat/stw"]).Detect,
				"seq/snap": ms["seq/snap"].Detect,
				"bat/snap": ms["bat/snap"].Detect,
			}
			order := []string{"seq/stw", "bat/stw", "seq/snap", "bat/snap"}
			defer func() {
				cancel()
				for _, m := range ms {
					m.Close()
				}
			}()
			sameSnapshots := func(when string) {
				t.Helper()
				want := ms[order[0]].Snapshot()
				for _, k := range order[1:] {
					if got := ms[k].Snapshot(); got != want {
						t.Fatalf("%s: %s and %s tables diverge:\n%s\nvs\n%s", when, order[0], k, want, got)
					}
				}
			}
			sameSnapshots("pre-detect")

			for round := 0; ; round++ {
				if round > nTxns {
					t.Fatalf("detectors did not quiesce after %d rounds", round)
				}
				ref := detect[order[0]]()
				for _, k := range order[1:] {
					st := detect[k]()
					if st.CyclesSearched != ref.CyclesSearched || st.Aborted != ref.Aborted ||
						st.Repositioned != ref.Repositioned || st.Salvaged != ref.Salvaged {
						t.Fatalf("round %d decisions diverge:\n%s %+v\n%s %+v", round, order[0], ref, k, st)
					}
					if st.FalseCycles != 0 {
						t.Fatalf("false cycles on a quiesced state: %s %+v", k, st)
					}
				}
				totalCycles += ref.CyclesSearched
				totalAborts += ref.Aborted
				if ref.CyclesSearched == 0 {
					break
				}
				sameSnapshots(fmt.Sprintf("round %d post-resolve", round))
			}

			for _, k := range order[1:] {
				if a, b := historyKey(t, ms[order[0]]), historyKey(t, ms[k]); a != b {
					t.Fatalf("event histories diverge:\n%s: %s\n%s: %s", order[0], a, k, b)
				}
			}
			for _, k := range order {
				if ms[k].Deadlocked() {
					t.Fatalf("%s left a deadlock unresolved", k)
				}
				assertAuditClean(t, ms[k])
			}
		})
	}
	// The comparison is vacuous if no seed deadlocks or no real batch runs.
	if totalCycles == 0 || totalAborts == 0 || totalBatches == 0 {
		t.Fatalf("workloads produced %d cycles / %d aborts / %d multi-request batches; tighten the generator",
			totalCycles, totalAborts, totalBatches)
	}
}

// TestLockAllHammer mixes batched and single acquisitions from many
// goroutines over an ascending key order on a single shard (where batch
// order equals argument order, so the workload is deadlock-free) with
// the invariant auditor armed. No transaction may abort, and under
// real parallelism the contention must exercise the combining slots.
func TestLockAllHammer(t *testing.T) {
	m := Open(Options{Shards: 1, audit: true})
	defer m.Close()
	ctx := context.Background()
	keys := make([]ResourceID, 10)
	for i := range keys {
		keys[i] = ResourceID(fmt.Sprintf("h%02d", i))
	}
	const workers = 8
	iters := 150
	if testing.Short() {
		iters = 30
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 100))
			for i := 0; i < iters; i++ {
				tx := m.Begin()
				var reqs []LockRequest
				for _, k := range keys { // ascending subset: deadlock-free
					if rng.Intn(3) != 0 {
						continue
					}
					mode := S
					if rng.Intn(4) == 0 {
						mode = X
					}
					reqs = append(reqs, LockRequest{Resource: k, Mode: mode})
				}
				var err error
				if rng.Intn(2) == 0 {
					err = tx.LockAll(ctx, reqs)
				} else {
					for _, r := range reqs {
						if err = tx.Lock(ctx, r.Resource, r.Mode); err != nil {
							break
						}
					}
				}
				if err != nil {
					t.Errorf("worker %d: %v (workload is deadlock-free)", w, err)
					tx.Abort()
					tx.Recycle()
					return
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("worker %d commit: %v", w, err)
				}
				tx.Recycle()
			}
		}()
	}
	wg.Wait()
	st := m.ShardStats()[0]
	t.Logf("shard 0: grants=%d mutexAcquires=%d", st.Grants, st.MutexAcquires)
	assertAuditClean(t, m)
}

// TestLockAllDetectorHammer is the adversarial variant: batched and
// single requests in random (deadlocking) orders across shards, with
// the periodic detector resolving whatever cycles arise and the
// invariant auditor re-verifying every activation. Aborts are expected
// and must always surface as ErrAborted.
func TestLockAllDetectorHammer(t *testing.T) {
	m := Open(Options{Shards: 4, Period: 500 * time.Microsecond, audit: true})
	defer m.Close()
	ctx := context.Background()
	const workers = 8
	deadline := time.Now().Add(100 * time.Millisecond)
	var commits, aborts atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for time.Now().Before(deadline) {
				tx := m.Begin()
				var reqs []LockRequest
				for i, n := 0, 2+rng.Intn(4); i < n; i++ {
					reqs = append(reqs, LockRequest{
						Resource: ResourceID(fmt.Sprintf("hot%d", rng.Intn(8))),
						Mode:     X,
					})
				}
				var err error
				if rng.Intn(2) == 0 {
					err = tx.LockAll(ctx, reqs)
				} else {
					for _, r := range reqs {
						if err = tx.Lock(ctx, r.Resource, r.Mode); err != nil {
							break
						}
					}
				}
				if err != nil {
					if !errors.Is(err, ErrAborted) {
						t.Errorf("worker %d: unexpected error %v", w, err)
					}
					aborts.Add(1)
					tx.Abort()
				} else if tx.Commit() == nil {
					commits.Add(1)
				}
				tx.Recycle()
			}
		}()
	}
	wg.Wait()
	if commits.Load() == 0 {
		t.Fatal("hammer made no progress")
	}
	t.Logf("commits=%d aborts=%d", commits.Load(), aborts.Load())
	assertAuditClean(t, m)
}
