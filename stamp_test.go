package hwtwbg

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"hwtwbg/internal/detect"
	"hwtwbg/internal/lock"
	"hwtwbg/internal/table"
)

// checkStamps runs one activation on the quiescent m and, between its
// copy and its search, checks the victim price of every transaction
// the snapshot shows waiting: Snapshot.HeldCount (the wait's stamp)
// must equal the locks the transaction holds across the live shards,
// and want must name exactly the waiters, with that count. The live
// shards must also pass Table.Validate, stamps included.
func checkStamps(t *testing.T, m *Manager, want map[TxnID]int) {
	t.Helper()
	seen := 0
	m.testHookAfterCopy = func() {
		tb := m.snap.ActiveTable()
		for _, id := range tb.Txns() {
			if !tb.Blocked(id) {
				continue
			}
			seen++
			live := 0
			for _, s := range m.shards {
				s.mu.Lock()
				live += s.tb.HeldCount(id)
				s.mu.Unlock()
			}
			w, ok := want[id]
			if got := m.snap.HeldCount(id); !ok || got != live || got != w {
				t.Errorf("%v waits stamped %d; holds %d across the shards, want %d (listed %v)", id, got, live, w, ok)
			}
		}
	}
	defer func() { m.testHookAfterCopy = nil }()
	if st := m.Detect(); st.CyclesSearched != 0 {
		t.Fatalf("activation = %+v, want no cycle", st)
	}
	if seen != len(want) {
		t.Errorf("snapshot shows %d waiters, want %d", seen, len(want))
	}
	m.stopTheWorld()
	defer m.resumeTheWorld()
	for i, s := range m.shards {
		if err := s.tb.Validate(); err != nil {
			t.Errorf("shard %d: %v", i, err)
		}
	}
}

// TestStampCoversEveryBlockingPath pins the victim price on each path
// that can leave a request waiting. A transaction holds locks in
// several shards and then blocks in one; the stamp its wait carries
// must count every lock — granted at once, by TryLock, by a hand-off,
// or earlier in the same LockAll round — and no conversion twice.
func TestStampCoversEveryBlockingPath(t *testing.T) {
	ctx := context.Background()
	type fixture struct {
		m  *Manager
		rs []ResourceID // one resource in each of four shards
		a  *Txn         // the transaction that blocks
		b  *Txn         // holds what a blocks on
	}
	setup := func(t *testing.T) *fixture {
		m := Open(Options{Shards: 4})
		t.Cleanup(m.Close)
		f := &fixture{m: m, rs: distinctShardResources(t, m, 4), a: m.Begin(), b: m.Begin()}
		mustLock(t, f.b, f.rs[0])
		return f
	}
	// in returns a fresh resource in rs[i]'s shard.
	in := func(t *testing.T, f *fixture, i, salt int) ResourceID {
		return shardResource(t, f.m, shardIndex(f.rs[i], f.m.mask), 900+salt)
	}
	// finish commits b and waits for a's pending request to be granted.
	finish := func(t *testing.T, f *fixture, done <-chan error) {
		if err := f.b.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	t.Run("Lock", func(t *testing.T) {
		f := setup(t)
		for i := 1; i < 4; i++ {
			mustLock(t, f.a, f.rs[i])
		}
		done := make(chan error, 1)
		go func() { done <- f.a.Lock(ctx, f.rs[0], X) }()
		waitBlocked(t, f.m, f.a.ID())
		checkStamps(t, f.m, map[TxnID]int{f.a.ID(): 3})
		finish(t, f, done)
	})

	t.Run("LockAllMidBatch", func(t *testing.T) {
		// One shard round grants two requests and blocks on the third.
		f := setup(t)
		mustLock(t, f.a, f.rs[1])
		batch := []LockRequest{{in(t, f, 0, 1), X}, {in(t, f, 0, 2), X}, {f.rs[0], X}}
		done := make(chan error, 1)
		go func() { done <- f.a.LockAll(ctx, batch) }()
		waitBlocked(t, f.m, f.a.ID())
		checkStamps(t, f.m, map[TxnID]int{f.a.ID(): 3})
		finish(t, f, done)
	})

	t.Run("Conversion", func(t *testing.T) {
		// a and c share S on c's resource; a's X blocks in the holder
		// list, its stamp counting the S it converts from once.
		f := setup(t)
		c := f.m.Begin()
		r := in(t, f, 2, 1)
		for _, tx := range []*Txn{f.a, c} {
			if err := tx.Lock(ctx, r, S); err != nil {
				t.Fatal(err)
			}
		}
		mustLock(t, f.a, f.rs[1])
		if err := f.a.Lock(ctx, f.rs[1], S); err != nil { // covered: no new lock
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- f.a.Lock(ctx, r, X) }()
		waitBlocked(t, f.m, f.a.ID())
		checkStamps(t, f.m, map[TxnID]int{f.a.ID(): 2})
		if err := c.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	})

	t.Run("TryLockAndHandOff", func(t *testing.T) {
		// Two TryLock grants and a TryLock conversion, then a wait
		// granted by hand-off; the next wait counts all three locks.
		f := setup(t)
		for _, r := range []ResourceID{f.rs[1], f.rs[2]} {
			if ok, err := f.a.TryLock(r, S); !ok || err != nil {
				t.Fatalf("TryLock(%s) = %v, %v", r, ok, err)
			}
		}
		if ok, err := f.a.TryLock(f.rs[1], X); !ok || err != nil {
			t.Fatalf("TryLock conversion = %v, %v", ok, err)
		}
		done := make(chan error, 1)
		go func() { done <- f.a.Lock(ctx, f.rs[0], X) }()
		waitBlocked(t, f.m, f.a.ID())
		finish(t, f, done) // hand-off: b's commit grants rs[0] to a

		d := f.m.Begin()
		r := in(t, f, 3, 1)
		mustLock(t, d, r)
		go func() { done <- f.a.Lock(ctx, r, X) }()
		waitBlocked(t, f.m, f.a.ID())
		checkStamps(t, f.m, map[TxnID]int{f.a.ID(): 3})
		if err := d.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	})
}

// TestStampTornMerge merges two shard copies taken at different
// instants, in which T1 waits in both: at a in the first, stamped with
// the two locks it held then, and at b in the second, after it was
// granted a and went on to hold four. The merge keeps the first wait it
// sees, and the victim price must be that wait's stamp.
func TestStampTornMerge(t *testing.T) {
	request := func(tb *table.Table, txn TxnID, rid ResourceID, held int, wantGrant bool) {
		t.Helper()
		res, err := tb.RequestHeld(txn, rid, lock.X, held)
		if err != nil || res.Granted != wantGrant {
			t.Fatalf("T%d %s: granted=%v err=%v, want granted=%v", txn, rid, res.Granted, err, wantGrant)
		}
	}
	early, late := table.New(), table.New()
	request(early, 9, "a", 0, true)
	request(early, 1, "a", 2, false)
	request(late, 8, "b", 0, true)
	request(late, 1, "b", 4, false)
	for _, order := range [][2]*table.Table{{early, late}, {late, early}} {
		s := table.NewSnapshot()
		s.BeginRound(2)
		for i, tb := range order {
			s.CopyShard(tb, i, 1)
			s.FinishShard(i)
		}
		s.MergeShards([]int{0, 1})
		rid, _, _ := s.ActiveTable().WaitingOn(1)
		want := map[ResourceID]int{"a": 2, "b": 4}[rid]
		if got := s.HeldCount(1); got != want || (order[0] == early) != (rid == "a") {
			t.Errorf("merge kept T1's wait at %s with stamp %d, want the first sub's wait and its stamp %d", rid, got, want)
		}
	}
}

// TestCostPricesOnlyWaiters pins the premise the stamp rests on: the
// default cost is only ever asked about a transaction that waits in the
// snapshot, since every candidate is a TDR-1 junction or a TDR-2 ST
// member. The detector's cost is wrapped to check it over the three-way
// differential's workloads and the deadlock_storm shape, tableau
// included.
func TestCostPricesOnlyWaiters(t *testing.T) {
	priced := 0
	watch := func(m *Manager) {
		m.snapDet = detect.New(m.snap.View(), detect.Config{Cost: func(id TxnID) float64 {
			priced++
			if !m.snap.ActiveTable().Blocked(id) {
				t.Errorf("%v priced, but it does not wait in the snapshot", id)
			}
			return m.defaultCost(id)
		}})
	}

	modes := []Mode{IS, IX, S, SIX, X}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nTxns, nRes := 4+rng.Intn(6), 3+rng.Intn(4)
		ops := make([]diffOp, 20+rng.Intn(30))
		for i := range ops {
			ops[i] = diffOp{txn: rng.Intn(nTxns), rid: ResourceID(fmt.Sprintf("R%d", rng.Intn(nRes))), mode: modes[rng.Intn(len(modes))]}
		}
		m := Open(Options{Shards: 4})
		watch(m)
		ctx, cancel := context.WithCancel(context.Background())
		applyWorkload(t, m, table.New(), ops, nTxns, ctx)
		for round := 0; m.Detect().CyclesSearched > 0; round++ {
			if round > nTxns {
				t.Fatalf("seed %d: detector did not quiesce", seed)
			}
		}
		cancel()
		m.Close()
	}

	s := newRingStorm(t, 64, 4)
	defer s.close()
	s.tableau = true
	watch(s.m)
	for round := 0; round < 8; round++ {
		s.arm(t)
		if st := s.m.Detect(); st.Aborted != stormRings || st.Repositioned != 1 {
			t.Fatalf("storm activation = %+v, want %d aborts and one repositioning", st, stormRings)
		}
		s.drain(t)
	}
	if priced == 0 {
		t.Fatal("no candidate was ever priced")
	}
	t.Logf("%d candidates priced, every one waiting", priced)
}
