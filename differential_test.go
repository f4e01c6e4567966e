// Differential tests for the detector: drive the stop-the-world oracle,
// the full-copy oracle (oracle_test.go) and the production activation to
// the same quiesced lock-table state over
// randomized workloads and require identical decisions — same cycles,
// same TDR-1 victims, same TDR-2 repositionings, same resulting table —
// plus deterministic coverage of the torn-snapshot path (a cycle broken
// between copy-out and the algorithm must be dropped at validation, not
// acted on) and a no-spurious-abort stress run.
package hwtwbg

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hwtwbg/internal/audit"
	"hwtwbg/internal/jview"
	"hwtwbg/internal/table"
)

// diffOp is one scripted lock request: txns[txn] asks for rid in mode.
type diffOp struct {
	txn  int
	rid  ResourceID
	mode Mode
}

// applyWorkload drives one manager through a scripted request sequence,
// using oracle (a plain sequential table fed the same sequence) to know
// which requests block. Blocking requests are issued from their own
// goroutine and waited on until enqueued, so managers fed the same
// script reach byte-identical lock tables with identical transaction
// ids. The returned channel carries every blocked Lock's eventual
// error.
func applyWorkload(t *testing.T, m *Manager, oracle *table.Table, ops []diffOp, nTxns int, ctx context.Context) ([]*Txn, chan error) {
	t.Helper()
	txns := make([]*Txn, nTxns)
	for i := range txns {
		txns[i] = m.Begin()
	}
	errs := make(chan error, len(ops))
	for _, op := range ops {
		id := txns[op.txn].ID()
		if oracle.Blocked(id) {
			continue // a blocked transaction cannot issue requests
		}
		granted, err := oracle.Request(id, op.rid, op.mode)
		if err != nil {
			continue // oracle refused the request; skip it on both sides
		}
		if granted {
			if err := txns[op.txn].Lock(ctx, op.rid, op.mode); err != nil {
				t.Fatalf("Lock(%v, %s, %v) should have granted: %v", id, op.rid, op.mode, err)
			}
			continue
		}
		tx, rid, mode := txns[op.txn], op.rid, op.mode
		go func() { errs <- tx.Lock(ctx, rid, mode) }()
		waitBlocked(t, m, tx.ID())
	}
	return txns, errs
}

// audits returns how many detector activations the runtime invariant
// auditor has checked and its retained reports, oldest first (the most
// recent 256, clean ones included). Both stay empty unless m was opened
// with the audit hook set.
func (m *Manager) audits() (runs int, reports []audit.Report) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.auditRuns, slices.Clone(m.auditReports)
}

// assertAuditClean fails the test if the runtime invariant auditor
// recorded any violation on m, or checked a different number of
// activations than m ran — so an audit-armed manager whose auditor went
// quiet fails instead of passing vacuously. detMu holds any activation in flight back, so the
// two counts are read between activations.
func assertAuditClean(t *testing.T, m *Manager) {
	t.Helper()
	m.detMu.Lock()
	runs, reports := m.audits()
	ran := m.MetricsSnapshot().Detector.Runs
	m.detMu.Unlock()
	if runs != ran {
		t.Errorf("invariant auditor checked %d activations, the manager ran %d", runs, ran)
	}
	for _, rep := range reports {
		if !rep.Ok() {
			t.Errorf("invariant auditor: %s", rep)
		}
	}
}

// decisions decodes every resolution m's detector has journaled —
// victims, repositions and salvages in decision order — from the
// control ring, failing the test if any group is incomplete.
func decisions(t testing.TB, m *Manager) []jview.Resolution {
	t.Helper()
	evs, incomplete := jview.Resolutions(m.Journal().Control().Snapshot(nil))
	if incomplete != 0 {
		t.Fatalf("%d incomplete resolution groups in a quiescent control ring", incomplete)
	}
	return evs
}

// historyKey renders m's decision sequence (kind:txn:resource) without
// timestamps.
func historyKey(t testing.TB, m *Manager) string {
	t.Helper()
	s := ""
	for _, e := range decisions(t, m) {
		s += fmt.Sprintf("%s:%d:%s;", e.Kind, e.Txn, e.Resource)
	}
	return s
}

// TestDifferentialSTWvsSnapshot builds randomized quiesced states in
// three managers — one activated by the stop-the-world oracle, one by
// the full-copy oracle and one by the production Detect — and asserts
// all three resolve them identically, activation by activation. The
// production manager runs the epoch-gated shard-skip path (detector
// repositions and aborts invalidate its snapshot, so later rounds also
// cover recovery from detector surgery).
func TestDifferentialSTWvsSnapshot(t *testing.T) {
	modes := []Mode{IS, IX, S, SIX, X}
	totalCycles, totalAborts := 0, 0
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			nTxns := 4 + rng.Intn(6)
			nRes := 3 + rng.Intn(4)
			nOps := 20 + rng.Intn(30)
			ops := make([]diffOp, nOps)
			for i := range ops {
				ops[i] = diffOp{
					txn:  rng.Intn(nTxns),
					rid:  ResourceID(fmt.Sprintf("R%d", rng.Intn(nRes))),
					mode: modes[rng.Intn(len(modes))],
				}
			}

			mSTW := Open(Options{Shards: 4, audit: true})
			mSnap := Open(Options{Shards: 4, audit: true})
			mInc := Open(Options{Shards: 4, audit: true})
			stw := newSTWOracle(mSTW)
			ctx, cancel := context.WithCancel(context.Background())
			defer func() {
				cancel()
				mSTW.Close()
				mSnap.Close()
				mInc.Close()
			}()
			applyWorkload(t, mSTW, table.New(), ops, nTxns, ctx)
			applyWorkload(t, mSnap, table.New(), ops, nTxns, ctx)
			applyWorkload(t, mInc, table.New(), ops, nTxns, ctx)

			if a, b := mSTW.Snapshot(), mSnap.Snapshot(); a != b {
				t.Fatalf("pre-detect states diverge:\nstw:\n%s\nsnapshot:\n%s", a, b)
			}
			if a, b := mSnap.Snapshot(), mInc.Snapshot(); a != b {
				t.Fatalf("pre-detect states diverge:\nfull:\n%s\nincremental:\n%s", a, b)
			}

			for round := 0; ; round++ {
				if round > nTxns {
					t.Fatalf("detector did not quiesce after %d rounds", round)
				}
				stSTW := stw.Detect()
				stSnap := detectFullCopy(mSnap)
				stInc := mInc.Detect()
				if stSTW.CyclesSearched != stSnap.CyclesSearched ||
					stSTW.Aborted != stSnap.Aborted ||
					stSTW.Repositioned != stSnap.Repositioned ||
					stSTW.Salvaged != stSnap.Salvaged {
					t.Fatalf("round %d decisions diverge:\nstw      %+v\nsnapshot %+v", round, stSTW, stSnap)
				}
				if stSnap.CyclesSearched != stInc.CyclesSearched ||
					stSnap.Aborted != stInc.Aborted ||
					stSnap.Repositioned != stInc.Repositioned ||
					stSnap.Salvaged != stInc.Salvaged {
					t.Fatalf("round %d decisions diverge:\nfull        %+v\nincremental %+v", round, stSnap, stInc)
				}
				if stSnap.FalseCycles != 0 || stInc.FalseCycles != 0 {
					t.Fatalf("false cycles on a quiesced state: full %+v incremental %+v", stSnap, stInc)
				}
				totalCycles += stSTW.CyclesSearched
				totalAborts += stSTW.Aborted
				if stSTW.CyclesSearched == 0 {
					break
				}
				if a, b := mSTW.Snapshot(), mSnap.Snapshot(); a != b {
					t.Fatalf("round %d post-resolve states diverge:\nstw:\n%s\nsnapshot:\n%s", round, a, b)
				}
				if a, b := mSnap.Snapshot(), mInc.Snapshot(); a != b {
					t.Fatalf("round %d post-resolve states diverge:\nfull:\n%s\nincremental:\n%s", round, a, b)
				}
			}

			if a, b := historyKey(t, mSTW), historyKey(t, mSnap); a != b {
				t.Fatalf("event histories diverge:\nstw:      %s\nsnapshot: %s", a, b)
			}
			if a, b := historyKey(t, mSnap), historyKey(t, mInc); a != b {
				t.Fatalf("event histories diverge:\nfull:        %s\nincremental: %s", a, b)
			}
			if mSTW.Deadlocked() || mSnap.Deadlocked() || mInc.Deadlocked() {
				t.Fatal("deadlock left unresolved")
			}
			assertAuditClean(t, mSTW)
			assertAuditClean(t, mSnap)
			assertAuditClean(t, mInc)
		})
	}
	// The comparison is vacuous if no seed ever deadlocks.
	if totalCycles == 0 || totalAborts == 0 {
		t.Fatalf("workloads produced %d cycles / %d aborts; tighten the generator", totalCycles, totalAborts)
	}
}

// shardResource returns a resource id owned by shard idx of m, derived
// deterministically from salt so distinct salts give distinct ids.
func shardResource(t testing.TB, m *Manager, idx uint32, salt int) ResourceID {
	t.Helper()
	for i := 0; i < 1<<20; i++ {
		r := ResourceID(fmt.Sprintf("churn-%d-%d", salt, i))
		if shardIndex(r, m.mask) == idx {
			return r
		}
	}
	t.Fatalf("no resource found for shard %d", idx)
	return ""
}

// TestDifferentialChurnSkewed drives the production (incremental) and
// full-copy oracle activations through a churn-skewed workload — every shard
// pinned by a long-lived holder, then all mutation confined to one hot
// shard — asserting byte-identical lock tables and identical detector
// decisions at every activation, and that the incremental manager's
// skip counters prove the cold shards were actually reused, not
// recopied.
func TestDifferentialChurnSkewed(t *testing.T) {
	const shards = 16
	mFull := Open(Options{Shards: shards, audit: true})
	mInc := Open(Options{Shards: shards, audit: true})
	defer mFull.Close()
	defer mInc.Close()
	ctx := context.Background()

	// Pin every shard: one long-lived transaction per manager holds an
	// S lock on a resource in each shard, so every shard has state worth
	// snapshotting (a skipped shard with content, not a trivial empty one).
	pins := make([]ResourceID, shards)
	for i := range pins {
		pins[i] = shardResource(t, mFull, uint32(i), 0)
	}
	pinFull, pinInc := mFull.Begin(), mInc.Begin()
	for _, r := range pins {
		if err := pinFull.Lock(ctx, r, S); err != nil {
			t.Fatal(err)
		}
		if err := pinInc.Lock(ctx, r, S); err != nil {
			t.Fatal(err)
		}
	}

	// Churn rounds: short transactions hammer the single hot shard (the
	// one owning pins[0]); every other shard stays untouched between
	// activations. Each round ends with one activation on each manager
	// and a byte-for-byte table comparison.
	hot := shardIndex(pins[0], mFull.mask)
	var copied, skipped int
	for round := 0; round < 20; round++ {
		for i := 0; i < 5; i++ {
			r := shardResource(t, mFull, hot, 1+round*5+i)
			for _, m := range []*Manager{mFull, mInc} {
				tx := m.Begin()
				if err := tx.Lock(ctx, r, X); err != nil {
					t.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				tx.Recycle()
			}
		}
		stFull := detectFullCopy(mFull)
		stInc := mInc.Detect()
		if stFull.CyclesSearched != stInc.CyclesSearched || stFull.Aborted != stInc.Aborted ||
			stFull.Repositioned != stInc.Repositioned || stInc.FalseCycles != 0 {
			t.Fatalf("round %d decisions diverge:\nfull        %+v\nincremental %+v", round, stFull, stInc)
		}
		if a, b := mFull.Snapshot(), mInc.Snapshot(); a != b {
			t.Fatalf("round %d tables diverge:\nfull:\n%s\nincremental:\n%s", round, a, b)
		}
		copied += stInc.ShardsCopied
		skipped += stInc.ShardsSkipped
	}

	// The first activation copies everything; after warm-up only the hot
	// shard (plus at most the detector's own churn) should be dirty, so
	// across the run the incremental detector must have copied at most
	// 20% of the shard visits.
	total := copied + skipped
	if total == 0 {
		t.Fatal("incremental manager reported no shard visits")
	}
	if frac := float64(copied) / float64(total); frac > 0.20 {
		t.Fatalf("incremental detector copied %d of %d shard visits (%.0f%%), want <= 20%%", copied, total, 100*frac)
	}
	if stFull := mFull.MetricsSnapshot().Detector; stFull.ShardsSkipped != 0 {
		t.Fatalf("full-copy manager skipped %d shards, want 0", stFull.ShardsSkipped)
	}
	assertAuditClean(t, mFull)
	assertAuditClean(t, mInc)
}

// TestIncrementalSnapshotHammer races back-to-back incremental
// activations against LockAll/commit churn and single-lock traffic.
// There is no deadlock in the workload (batches lock in ascending
// order), so every activation must come back empty — the test's value
// is the -race interleaving of epoch bumps, shard copies and skip
// decisions against live mutation, plus the no-spurious-abort check.
func TestIncrementalSnapshotHammer(t *testing.T) {
	m := Open(Options{Shards: 8})
	defer m.Close()
	const (
		workers = 4
		rounds  = 200
	)
	ctx := context.Background()
	var workersWG, detectWG sync.WaitGroup
	var aborts atomic.Int64
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		w := w
		workersWG.Add(1)
		go func() {
			defer workersWG.Done()
			rng := rand.New(rand.NewSource(int64(w) + 7))
			for i := 0; i < rounds; i++ {
				tx := m.Begin()
				k := 2 + rng.Intn(4)
				first := rng.Intn(24)
				reqs := make([]LockRequest, 0, k)
				for j := 0; j < k; j++ {
					reqs = append(reqs, LockRequest{
						Resource: ResourceID(fmt.Sprintf("hammer-%03d", first+j)),
						Mode:     S,
					})
				}
				if err := tx.LockAll(ctx, reqs); err != nil {
					aborts.Add(1)
					continue
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("commit: %v", err)
				}
			}
		}()
	}
	detectWG.Add(1)
	go func() {
		defer detectWG.Done()
		for {
			m.Detect() // back-to-back activations, no pause
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	workersWG.Wait()
	close(stop)
	detectWG.Wait()
	if n := aborts.Load(); n != 0 {
		t.Fatalf("%d aborts under ordered acquisition — every one is spurious", n)
	}
	st := m.MetricsSnapshot().Detector
	if st.Aborted != 0 || st.Repositioned != 0 {
		t.Fatalf("detector resolved nonexistent deadlocks: %+v", st)
	}
	if st.Runs == 0 {
		t.Fatal("detector never ran")
	}
}

// TestSnapshotFalseCycle forces the torn-snapshot race deterministically:
// a real two-transaction deadlock is copied out, then broken (one party
// cancels and aborts) before the algorithm runs. The snapshot still
// contains the cycle, so the detector proposes a victim — and validation
// must drop it: FalseCycles counts it, nobody is aborted, and the
// survivor's pending request completes normally.
func TestSnapshotFalseCycle(t *testing.T) {
	m := Open(Options{Shards: 4, audit: true})
	defer m.Close()
	rs := distinctShardResources(t, m, 2)
	x, y := rs[0], rs[1]
	bg := context.Background()

	a, b := m.Begin(), m.Begin()
	if err := a.Lock(bg, x, X); err != nil {
		t.Fatal(err)
	}
	if err := b.Lock(bg, y, X); err != nil {
		t.Fatal(err)
	}
	aErr := make(chan error, 1)
	go func() { aErr <- a.Lock(bg, y, X) }()
	waitBlocked(t, m, a.ID())
	bCtx, cancelB := context.WithCancel(bg)
	bErr := make(chan error, 1)
	go func() { bErr <- b.Lock(bCtx, x, X) }()
	waitBlocked(t, m, b.ID())
	if !m.Deadlocked() {
		t.Fatalf("expected a deadlock:\n%s", m.Snapshot())
	}

	m.testHookAfterCopy = func() {
		// The snapshot now holds the cycle; break it live before the
		// algorithm runs. Cancellation aborts b synchronously inside its
		// Lock call, so once the error arrives the live tables are clean.
		cancelB()
		if err := <-bErr; !errors.Is(err, context.Canceled) {
			t.Errorf("b.Lock = %v, want context.Canceled", err)
		}
	}
	st := m.Detect()
	m.testHookAfterCopy = nil

	if st.CyclesSearched != 1 || st.FalseCycles != 1 || st.Validations != 1 {
		t.Fatalf("activation = %+v, want 1 cycle dropped at validation", st)
	}
	if st.Aborted != 0 || st.Repositioned != 0 || st.Salvaged != 0 {
		t.Fatalf("activation acted on a false cycle: %+v", st)
	}
	// The survivor was granted by b's departure, not by the detector.
	if err := <-aErr; err != nil {
		t.Fatalf("survivor's Lock = %v, want granted", err)
	}
	if err := a.Commit(); err != nil {
		t.Fatalf("survivor commit: %v", err)
	}
	if evs := decisions(t, m); len(evs) != 0 {
		t.Fatalf("false cycle left history events: %v", evs)
	}
	// The auditor judges the detector against its input: the cycle was
	// genuine in the torn snapshot even though validation rightly
	// dropped it live, so the audit must be clean, not a violation.
	assertAuditClean(t, m)
}

// TestSnapshotNoSpuriousAborts hammers a manager whose workers acquire
// resources in ascending order — so no real deadlock can ever form —
// while the snapshot detector runs back to back over constantly-torn
// copies. Any abort would be spurious. The test drives the background
// loop's ticks itself, and worker 0 waits halfway for an activation to
// finish, so at least one provably overlaps the workload however the
// scheduler treats timers. Under -race this also exercises the copy-out
// and validation paths against full grant/release traffic.
func TestSnapshotNoSpuriousAborts(t *testing.T) {
	tick := make(chan time.Time)
	notify := make(chan time.Duration, 1)
	m := Open(Options{Period: 200 * time.Microsecond, Shards: 8, schedTick: tick, schedNotify: notify})
	defer m.Close()
	stop := make(chan struct{})
	ticking := make(chan struct{})
	go func() {
		defer close(ticking)
		for {
			select {
			case tick <- time.Time{}:
			case <-stop:
				return
			}
		}
	}()
	const (
		workers   = 8
		resources = 16
		rounds    = 300
	)
	var aborts atomic.Int64
	var wg sync.WaitGroup
	ctx := context.Background()
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 100))
			for i := 0; i < rounds; i++ {
				if w == 0 && i == rounds/2 {
					awaitActivation(t, notify)
				}
				tx := m.Begin()
				// Lock a few consecutive resources in ascending order.
				k := 1 + rng.Intn(3)
				first := rng.Intn(resources - k)
				ok := true
				for j := 0; j <= k; j++ {
					rid := ResourceID(fmt.Sprintf("ordered-%03d", first+j))
					mode := S
					if rng.Intn(3) == 0 {
						mode = X
					}
					if err := tx.Lock(ctx, rid, mode); err != nil {
						aborts.Add(1)
						ok = false
						break
					}
				}
				if ok {
					if err := tx.Commit(); err != nil {
						t.Errorf("commit: %v", err)
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-ticking
	if n := aborts.Load(); n != 0 {
		t.Fatalf("%d aborts under ordered acquisition — every one is spurious (stats %+v)", n, m.MetricsSnapshot().Detector)
	}
	st := m.MetricsSnapshot().Detector
	if st.Aborted != 0 || st.Repositioned != 0 {
		t.Fatalf("detector resolved nonexistent deadlocks: %+v", st)
	}
}

// awaitActivation blocks until the background loop finishes an
// activation that ends after the call: it drops a notification already
// buffered, then waits for a fresh one.
func awaitActivation(t *testing.T, notify <-chan time.Duration) {
	select {
	case <-notify:
	default:
	}
	select {
	case <-notify:
	case <-time.After(10 * time.Second):
		t.Error("no detector activation completed while the workload ran")
	}
}
