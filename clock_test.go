package hwtwbg

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"hwtwbg/journal"
)

// waitInShardLock returns once a goroutine started by the running test
// is inside a contended sync.Mutex.Lock under a Txn method — past the
// clock read a contended acquisition takes before it waits — and then
// gives it a millisecond to park. The test must not use subtests, so
// its goroutines' frames carry its name.
func waitInShardLock(t *testing.T) {
	t.Helper()
	own := "hwtwbg." + t.Name() + ".func"
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.Stack(buf, true)
		for _, g := range strings.Split(string(buf[:n]), "\n\n") {
			if strings.Contains(g, "(*Mutex).lockSlow") && strings.Contains(g, "hwtwbg.(*Txn).") && strings.Contains(g, own) {
				time.Sleep(time.Millisecond)
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("no goroutine of the test ever waited for the shard mutex")
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestUncontendedGrantWaitsZero pins the one clock read of an
// uncontended request: the read that stamps the grant inside the shard
// round is also its start, so on one goroutine every immediate grant —
// Lock, a conversion, TryLock, a LockAll round — observes exactly 0 in
// time_to_grant. A request that meets a held shard mutex reads the
// clock before it waits as well, and observes the wait.
func TestUncontendedGrantWaitsZero(t *testing.T) {
	m := Open(Options{Shards: 1})
	defer m.Close()
	ctx := context.Background()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	a := m.Begin()
	must(a.Lock(ctx, "r1", S))
	must(a.Lock(ctx, "r1", X))
	if ok, err := a.TryLock("r2", X); !ok || err != nil {
		t.Fatalf("TryLock on a free resource = %v, %v", ok, err)
	}
	must(a.LockAll(ctx, []LockRequest{{"r3", X}, {"r4", S}}))
	must(a.Commit())
	g := m.MetricsSnapshot().Total.GrantNs
	if g.Count != 5 || g.Buckets[0] != 5 || g.Sum != 0 {
		t.Fatalf("time_to_grant of 5 uncontended grants: count %d, bucket 0 %d, sum %dns; want 5, 5, 0\n%v", g.Count, g.Buckets[0], g.Sum, g)
	}

	b := m.Begin()
	done := make(chan error, 1)
	s := m.shards[0]
	s.mu.Lock()
	go func() { done <- b.Lock(ctx, "r5", X) }()
	waitInShardLock(t)
	s.mu.Unlock()
	must(<-done)
	must(b.Commit())
	g = m.MetricsSnapshot().Total.GrantNs
	if g.Count != 6 || g.Buckets[0] != 5 || g.Sum < uint64(time.Millisecond) {
		t.Fatalf("after a grant behind a mutex held 1ms: count %d, bucket 0 %d, sum %v; want 6, 5, at least 1ms\n%v", g.Count, g.Buckets[0], time.Duration(g.Sum), g)
	}
}

// TestStampsFollowTableOrder checks that one shard's journal stamps
// follow the order of the shard rounds that decided them: a holder's
// grant, a waiter's block, a LockAll round, a TryLock refusal, the
// hand-off grant, and the grant a deadlock victim's abort causes. The
// first pair races: the waiter's Lock meets the shard mutex held, and
// the holder's TryLock runs the moment it is released, so it usually
// takes the mutex first although the waiter asked first. A stamp read
// before the mutex would then sort the block ahead of the grant it
// waits behind. A Detect activation's stamp must fall after the blocks
// it resolved and before the grant its victim's abort caused.
func TestStampsFollowTableOrder(t *testing.T) {
	m := Open(Options{Shards: 1})
	defer m.Close()
	ctx := context.Background()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	lockAsync := func(f func() error) <-chan error {
		done := make(chan error, 1)
		go func() { done <- f() }()
		return done
	}
	ev := func(kind journal.Kind, tx *Txn, res string) jev {
		return jev{kind: kind, txn: int64(tx.ID()), res: res}
	}

	h, w := m.Begin(), m.Begin()
	s := m.shards[0]
	s.mu.Lock()
	wDone := lockAsync(func() error { return w.Lock(ctx, "r", X) })
	waitInShardLock(t)
	s.mu.Unlock()
	won, err := h.TryLock("r", X)
	must(err)
	t.Logf("the holder's TryLock took the mutex ahead of the waiter: %v", won)
	holder, waiter, waiterDone := h, w, wDone
	want := []jev{ev(journal.KindGrant, h, "r"), ev(journal.KindBlock, w, "r")}
	if !won {
		// The waiter took the mutex first: it holds, and h waits.
		must(<-wDone)
		holder, waiter = w, h
		waiterDone = lockAsync(func() error { return h.Lock(ctx, "r", X) })
		want = []jev{ev(journal.KindGrant, w, "r"), ev(journal.KindRequest, h, "r"), ev(journal.KindBlock, h, "r")}
	}
	waitBlocked(t, m, waiter.ID())

	l := m.Begin()
	lDone := lockAsync(func() error { return l.LockAll(ctx, []LockRequest{{"a", X}, {"b", X}, {"r", S}}) })
	waitBlocked(t, m, l.ID())
	p := m.Begin()
	if ok, err := p.TryLock("a", S); ok || err != nil {
		t.Fatalf("TryLock behind an X = %v, %v", ok, err)
	}
	must(holder.Commit())
	must(<-waiterDone)
	want = append(want,
		ev(journal.KindGrant, l, "a"), ev(journal.KindGrant, l, "b"), ev(journal.KindBlock, l, "r"),
		ev(journal.KindRequest, p, "a"),
		ev(journal.KindGrant, waiter, "r"))

	// waiter → l on a, l → waiter on r: one victim, whose abort grants
	// the survivor's request.
	cycDone := lockAsync(func() error { return waiter.Lock(ctx, "a", X) })
	waitBlocked(t, m, waiter.ID())
	if st := m.Detect(); st.Aborted != 1 {
		t.Fatalf("Detect() = %+v, want one victim", st)
	}
	errW, errL := <-cycDone, <-lDone
	want = append(want, ev(journal.KindBlock, waiter, "a"), jev{kind: journal.KindDetect, txn: 1})
	switch {
	case errors.Is(errW, ErrAborted) && errL == nil:
		want = append(want, ev(journal.KindGrant, l, "r"))
	case errors.Is(errL, ErrAborted) && errW == nil:
		want = append(want, ev(journal.KindGrant, waiter, "a"))
	default:
		t.Fatalf("cycle results %v / %v, want exactly one ErrAborted", errW, errL)
	}

	var got []jev
	for _, rec := range m.Journal().Snapshot() {
		if rec.Shard == 0 || rec.Kind == journal.KindDetect {
			got = append(got, jev{kind: rec.Kind, txn: rec.Txn, res: rec.Resource()})
		}
	}
	diffSeq(t, got, want)
}

// TestEndRecordStampedBeforeRelease pins where a commit's and an
// abort's end record is stamped: in the first release round, before
// any lock is released. The holder holds one resource on each of two
// shards and the waiter queues on the first; the test holds the second
// shard's mutex while the holder ends, so the waiter is granted — and
// stamps its hand-off grant — before the holder's second round can
// run. The end record must not sort after that grant, or the journal
// would show the two X locks overlapping. The victim row checks the
// same of a deadlock victim's abort record.
func TestEndRecordStampedBeforeRelease(t *testing.T) {
	ctx := context.Background()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, end := range []journal.Kind{journal.KindCommit, journal.KindAbort} {
		m := Open(Options{Shards: 2})
		res := [2]ResourceID{shardResource(t, m, 0, 1), shardResource(t, m, 1, 2)}
		h, w := m.Begin(), m.Begin()
		must(h.Lock(ctx, res[0], X))
		must(h.Lock(ctx, res[1], X))
		wDone := make(chan error, 1)
		go func() { wDone <- w.Lock(ctx, res[0], X) }()
		waitBlocked(t, m, w.ID())

		second := m.shards[1]
		second.mu.Lock()
		hDone := make(chan error, 1)
		go func() {
			if end == journal.KindCommit {
				hDone <- h.Commit()
				return
			}
			h.Abort()
			hDone <- nil
		}()
		must(<-wDone) // granted by the first round; the second waits for us
		second.mu.Unlock()
		must(<-hDone)
		must(w.Commit())

		var endTS, grantTS int64
		for _, rec := range m.Journal().Snapshot() {
			switch {
			case rec.Kind == end && rec.Txn == int64(h.ID()):
				endTS = rec.TS
			case rec.Kind == journal.KindGrant && rec.Txn == int64(w.ID()):
				grantTS = rec.TS
			}
		}
		if endTS == 0 || grantTS == 0 {
			t.Fatalf("%v: journal lacks the end record (%d) or the waiter's grant (%d)", end, endTS, grantTS)
		}
		if endTS > grantTS {
			t.Errorf("%v of T%d stamped %dns after the grant its first release caused", end, h.ID(), endTS-grantTS)
		}
		m.Close()
	}

	t.Run("victim", func(t *testing.T) {
		m := Open(Options{Shards: 2})
		defer m.Close()
		res := [2]ResourceID{shardResource(t, m, 0, 1), shardResource(t, m, 1, 2)}
		a, b := m.Begin(), m.Begin()
		must(a.Lock(ctx, res[0], X))
		must(b.Lock(ctx, res[1], X))
		type result struct {
			tx  *Txn
			err error
		}
		results := make(chan result, 2)
		go func() { results <- result{a, a.Lock(ctx, res[1], X)} }()
		waitBlocked(t, m, a.ID())
		go func() { results <- result{b, b.Lock(ctx, res[0], X)} }()
		waitBlocked(t, m, b.ID())

		// A woken victim samples its wait into the cost model before its
		// Lock returns. Holding the model's mutex parks the victim there
		// while the survivor is granted the lock the abort released, so a
		// victim that stamped its own abort record once woken would sort
		// after that grant.
		m.cost.mu.Lock()
		detected := make(chan Stats, 1)
		go func() { detected <- m.Detect() }()
		survivor := <-results
		m.cost.mu.Unlock()
		victim := <-results
		if survivor.err != nil || !errors.Is(victim.err, ErrAborted) {
			t.Fatalf("lock results %v (first) / %v, want nil then ErrAborted", survivor.err, victim.err)
		}
		if st := <-detected; st.Aborted != 1 {
			t.Fatalf("Detect aborted %d, want 1", st.Aborted)
		}
		must(survivor.tx.Commit())

		var aborts int
		var endTS, grantTS int64
		for _, rec := range m.Journal().Snapshot() {
			switch {
			case rec.Kind == journal.KindAbort && rec.Txn == int64(victim.tx.ID()):
				aborts++
				endTS = rec.TS
			case rec.Kind == journal.KindGrant && rec.Txn == int64(survivor.tx.ID()) && rec.Arg > 0:
				grantTS = rec.TS
			}
		}
		if aborts != 1 || grantTS == 0 {
			t.Fatalf("journal holds %d abort records of victim T%d and waited grant %d, want one and a grant", aborts, victim.tx.ID(), grantTS)
		}
		if endTS > grantTS {
			t.Errorf("abort of victim T%d stamped %dns after the grant its abort caused", victim.tx.ID(), endTS-grantTS)
		}
	})
}

// TestCloseJournalsOneAbortEach: Close writes the one abort record of
// every transaction it aborts — a holder between lock calls as well as
// a waiter — and their owners, when they next call in, write none.
func TestCloseJournalsOneAbortEach(t *testing.T) {
	ctx := context.Background()
	m := Open(Options{Shards: 2})
	res := [2]ResourceID{shardResource(t, m, 0, 1), shardResource(t, m, 1, 2)}
	h, w := m.Begin(), m.Begin()
	for _, r := range res {
		if err := h.Lock(ctx, r, X); err != nil {
			t.Fatal(err)
		}
	}
	wDone := make(chan error, 1)
	go func() { wDone <- w.Lock(ctx, res[0], X) }()
	waitBlocked(t, m, w.ID())
	m.Close()
	if err := <-wDone; !errors.Is(err, ErrAborted) {
		t.Fatalf("waiter's Lock returned %v, want ErrAborted", err)
	}
	if err := h.Commit(); !errors.Is(err, ErrAborted) {
		t.Fatalf("holder's Commit returned %v, want ErrAborted", err)
	}
	h.Abort()
	aborts := map[int64]int{}
	for _, rec := range m.Journal().Snapshot() {
		if rec.Kind == journal.KindAbort {
			aborts[rec.Txn]++
		}
	}
	if len(aborts) != 2 || aborts[int64(h.ID())] != 1 || aborts[int64(w.ID())] != 1 {
		t.Fatalf("abort records by txn %v, want one each for T%d and T%d", aborts, h.ID(), w.ID())
	}
}
