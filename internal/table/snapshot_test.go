package table

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"hwtwbg/internal/lock"
)

// buildSnapshotFixture fills t with a mix of holders, blocked
// conversions and queue waiters across several resources.
func buildSnapshotFixture(t *testing.T, tb *Table) {
	t.Helper()
	mustReq := func(txn TxnID, rid ResourceID, m lock.Mode, wantGranted bool) {
		t.Helper()
		g, err := tb.Request(txn, rid, m)
		if err != nil {
			t.Fatalf("Request(%d, %s, %v): %v", txn, rid, m, err)
		}
		if g != wantGranted {
			t.Fatalf("Request(%d, %s, %v) granted=%v, want %v", txn, rid, m, g, wantGranted)
		}
	}
	mustReq(1, "R1", lock.IX, true)
	mustReq(2, "R1", lock.IX, true)
	mustReq(1, "R1", lock.SIX, false) // blocked conversion
	mustReq(3, "R1", lock.X, false)   // queue
	mustReq(4, "R1", lock.IS, false)  // queue behind an incompatible waiter
	mustReq(2, "R2", lock.S, true)
	mustReq(5, "R3", lock.X, true)  // T5 holds R3...
	mustReq(5, "R2", lock.X, false) // ...and then queues on R2
}

// activeString renders what a snapshot of the given tables should hold:
// their resources with a queued waiter or a blocked conversion, in the
// paper's notation, one per line, sorted by id.
func activeString(tbs ...*Table) string {
	var lines []string
	for _, tb := range tbs {
		for _, r := range tb.Resources() {
			if len(r.queue) > 0 || r.blockedLen() > 0 {
				lines = append(lines, r.String()+"\n")
			}
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "")
}

// activeHeld is txn's held list restricted to active resources, sorted.
func activeHeld(tb *Table, txn TxnID) []ResourceID {
	var out []ResourceID
	for _, rid := range tb.Held(txn) {
		if r := tb.Resource(rid); len(r.queue) > 0 || r.blockedLen() > 0 {
			out = append(out, rid)
		}
	}
	slices.Sort(out)
	return out
}

func TestSnapshotFullCopy(t *testing.T) {
	src := New()
	buildSnapshotFixture(t, src)

	s := NewSnapshot()
	fullCopy(s, []*Table{src}, 1)
	got := s.ActiveTable()

	// The snapshot is the source's active projection: R1 and R2 with
	// their holders and queues; R3, which nobody waits on, is left out.
	if got.String() != activeString(src) {
		t.Fatalf("snapshot table differs from the source's active projection:\n got:\n%s\nwant:\n%s", got.String(), activeString(src))
	}
	if got.Resource("R3") != nil {
		t.Fatal("inactive R3 was copied")
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("snapshot table invalid: %v", err)
	}
	for _, txn := range src.Txns() {
		wantRid, wantMode, wantOk := src.WaitingOn(txn)
		gotRid, gotMode, gotOk := got.WaitingOn(txn)
		if wantRid != gotRid || wantMode != gotMode || wantOk != gotOk {
			t.Errorf("WaitingOn(%d): snapshot (%s, %v, %v), source (%s, %v, %v)",
				txn, gotRid, gotMode, gotOk, wantRid, wantMode, wantOk)
		}
		// Held lists are restricted to active resources; the count the
		// victim cost needs rides whole on every wait, and only waiters
		// are priced.
		held := got.Held(txn)
		slices.Sort(held)
		if want := activeHeld(src, txn); !slices.Equal(held, want) {
			t.Errorf("Held(%d): snapshot %v, source's active %v", txn, held, want)
		}
		want := 0
		if wantOk {
			want = src.HeldCount(txn)
		}
		if a := s.HeldCount(txn); a != want {
			t.Errorf("HeldCount(%d): snapshot %d, want %d", txn, a, want)
		}
		if got.Upgrading(txn) != src.Upgrading(txn) {
			t.Errorf("Upgrading(%d) differs", txn)
		}
	}

	// Mutating the snapshot must not leak into the source.
	got.Abort(3)
	if activeString(src) == got.String() {
		t.Fatalf("aborting in the snapshot changed nothing (shared state?)")
	}
	if !src.Blocked(3) {
		t.Fatalf("source lost T3's blocked state after a snapshot-side abort")
	}
}

func TestSnapshotMergesShardedTables(t *testing.T) {
	// Two "shards": T1 holds in a and waits in b; T2 the reverse. Each
	// blocks holding one lock in the other shard, the stamp a manager
	// gives the wait.
	a, b := New(), New()
	if g, _ := a.Request(1, "Ra", lock.X); !g {
		t.Fatal("setup: T1 should hold Ra")
	}
	if g, _ := b.Request(2, "Rb", lock.X); !g {
		t.Fatal("setup: T2 should hold Rb")
	}
	if res, _ := b.RequestHeld(1, "Rb", lock.X, 1); res.Granted {
		t.Fatal("setup: T1 should block on Rb")
	}
	if res, _ := a.RequestHeld(2, "Ra", lock.X, 1); res.Granted {
		t.Fatal("setup: T2 should block on Ra")
	}

	s := NewSnapshot()
	fullCopy(s, []*Table{a, b}, 1)
	got := s.ActiveTable()

	if n := got.HeldCount(1); n != 1 {
		t.Errorf("merged HeldCount(1) = %d, want 1", n)
	}
	if n := s.HeldCount(1); n != 1 {
		t.Errorf("Snapshot.HeldCount(1) = %d, want 1", n)
	}
	if got, want := got.String(), activeString(a, b); got != want {
		t.Errorf("merge differs from the sources' active projection:\n got:\n%s\nwant:\n%s", got, want)
	}
	if rid, _, ok := got.WaitingOn(1); !ok || rid != "Rb" {
		t.Errorf("merged WaitingOn(1) = (%s, %v), want (Rb, true)", rid, ok)
	}
	if rid, _, ok := got.WaitingOn(2); !ok || rid != "Ra" {
		t.Errorf("merged WaitingOn(2) = (%s, %v), want (Ra, true)", rid, ok)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("merged snapshot invalid: %v", err)
	}
}

func TestSnapshotResetReuse(t *testing.T) {
	src := New()
	buildSnapshotFixture(t, src)
	s := NewSnapshot()

	// Warm up the arenas, then verify a Reset + full-copy round trip is
	// (nearly) allocation-free and still faithful.
	srcs := []*Table{src}
	fullCopy(s, srcs, 1)
	want := s.ActiveTable().String()
	allocs := testing.AllocsPerRun(50, func() {
		s.Reset()
		fullCopy(s, srcs, 1)
	})
	if got := s.ActiveTable().String(); got != want {
		t.Fatalf("reused snapshot differs:\n got:\n%s\nwant:\n%s", got, want)
	}
	// Map reinsertion may allocate a little; copy-out must not scale
	// allocations with table size.
	if allocs > 4 {
		t.Errorf("Reset + full copy allocates %.0f objects/run after warm-up, want <= 4", allocs)
	}
}

func TestSnapshotTableStableAcrossReset(t *testing.T) {
	s := NewSnapshot()
	before := s.ActiveTable()
	src := New()
	buildSnapshotFixture(t, src)
	fullCopy(s, []*Table{src}, 1)
	s.Reset()
	if s.ActiveTable() != before {
		t.Fatalf("Table() pointer changed across Reset; detectors bind to it once")
	}
}

func TestSnapshotTornWaitKeepsFirst(t *testing.T) {
	// A torn copy can present one transaction as waiting in two source
	// tables; the merge keeps the first wait seen.
	a, b := New(), New()
	a.Request(9, "Ra", lock.X)
	a.Request(1, "Ra", lock.X) // T1 waits in a
	b.Request(8, "Rb", lock.X)
	b.Request(1, "Rb", lock.X) // and "again" in b

	s := NewSnapshot()
	fullCopy(s, []*Table{a, b}, 1)
	rid, _, ok := s.ActiveTable().WaitingOn(1)
	if !ok || rid != "Ra" {
		t.Fatalf("WaitingOn(1) = (%s, %v), want first-seen (Ra, true)", rid, ok)
	}
	// The stale queue entry in Rb remains (the validate-then-act layer
	// is what protects against acting on it), but the table must still
	// be internally consistent enough to walk.
	if r := s.ActiveTable().Resource("Rb"); r == nil || r.QueueLen() != 1 {
		t.Fatalf("Rb queue not copied")
	}
}

// fullCopy runs one complete indexed round over srcs, copying every
// shard at the given epoch.
func fullCopy(s *Snapshot, srcs []*Table, epoch uint64) {
	s.BeginRound(len(srcs))
	dirty := make([]int, 0, len(srcs))
	for i, t := range srcs {
		s.CopyShard(t, i, epoch)
		s.FinishShard(i)
		dirty = append(dirty, i)
	}
	s.MergeShards(dirty)
}

// TestSnapshotShardCleanEpoch pins the skip decision: a sub is clean
// only when it holds a copy taken at exactly the source's current
// epoch, and detector-side mutation makes the subs it rewrote — only
// those — unclean.
func TestSnapshotShardCleanEpoch(t *testing.T) {
	a, b := New(), New()
	a.Request(1, "Ra", lock.X)
	a.Request(4, "Ra", lock.X) // T4 waits, so shard 0 has something to keep
	b.Request(2, "Rb", lock.X)
	b.Request(3, "Rb", lock.X) // T3 waits, so an abort has something to mutate

	s := NewSnapshot()
	s.BeginRound(2)
	if s.ShardClean(0, 0) || s.ShardClean(1, 0) {
		t.Fatal("fresh subs report clean")
	}
	fullCopy(s, []*Table{a, b}, 3)
	if !s.ShardClean(0, 3) || !s.ShardClean(1, 3) {
		t.Fatal("copied subs not clean at their copy epoch")
	}
	if s.ShardClean(0, 4) {
		t.Fatal("sub clean at an epoch it was not copied at")
	}

	// A detector mutation (abort applied to the snapshot) rewrites Rb's
	// record: shard 1 must be recopied next round, shard 0 must not.
	raRec := s.ActiveTable().Resource("Ra")
	s.View().Abort(2)
	s.BeginRound(2)
	if !s.ShardClean(0, 3) {
		t.Fatal("untouched sub no longer clean after a mutation elsewhere")
	}
	if s.ShardClean(1, 3) {
		t.Fatal("sub still clean after a snapshot-side mutation of its record")
	}
	s.CopyShard(b, 1, 3)
	s.FinishShard(1)
	s.MergeShards([]int{1})
	ref := NewSnapshot()
	fullCopy(ref, []*Table{a, b}, 3)
	if got, want := s.ActiveTable().String(), ref.ActiveTable().String(); got != want {
		t.Fatalf("recopy after mutation differs:\n got:\n%s\nwant:\n%s", got, want)
	}
	if err := s.ActiveTable().Validate(); err != nil {
		t.Fatalf("recopy after mutation invalid: %v", err)
	}
	if s.ActiveTable().Resource("Ra") != raRec {
		t.Fatal("untouched shard's record was recopied")
	}
}

// TestSnapshotIncrementalSkipReuse checks the tentpole path: after a
// full round, mutating only one source shard and recopying only it
// yields a merged table byte-identical to a full recopy, and the
// untouched shard's records are reused in place (same pointers).
func TestSnapshotIncrementalSkipReuse(t *testing.T) {
	cold, hot := New(), New()
	buildSnapshotFixture(t, cold)
	hot.Request(20, "H1", lock.X)
	hot.Request(21, "H1", lock.X) // waiter

	s := NewSnapshot()
	fullCopy(s, []*Table{cold, hot}, 1)
	coldRes := s.ActiveTable().Resource("R1")
	if coldRes == nil {
		t.Fatal("cold shard's R1 missing from the merge")
	}

	// Mutate the hot shard only: the waiter leaves, a new resource and a
	// new waiter arrive.
	hot.Abort(21)
	hot.Request(22, "H2", lock.X)
	hot.Request(23, "H1", lock.S) // blocks behind T20's X

	// Incremental round: shard 0 is clean at epoch 1 and skipped; only
	// shard 1 is recopied at its new epoch.
	s.BeginRound(2)
	if !s.ShardClean(0, 1) {
		t.Fatal("cold shard not clean")
	}
	if s.ShardClean(1, 2) {
		t.Fatal("hot shard clean at a bumped epoch")
	}
	s.CopyShard(hot, 1, 2)
	s.FinishShard(1)
	s.MergeShards([]int{1})

	ref := NewSnapshot()
	fullCopy(ref, []*Table{cold, hot}, 2)
	if got, want := s.ActiveTable().String(), ref.ActiveTable().String(); got != want {
		t.Fatalf("incremental merge differs from full copy:\n got:\n%s\nwant:\n%s", got, want)
	}
	if got, want := s.ActiveTable().String(), activeString(cold, hot); got != want {
		t.Fatalf("incremental merge differs from the sources' active projection:\n got:\n%s\nwant:\n%s", got, want)
	}
	if err := s.ActiveTable().Validate(); err != nil {
		t.Fatalf("incremental merge invalid: %v", err)
	}
	if n := s.HeldCount(5); n != 1 {
		t.Fatalf("HeldCount(5) = %d, want 1 (R3 is inactive; T5's wait in the skipped shard still counts it)", n)
	}
	if n := s.HeldCount(23); n != 0 {
		t.Fatalf("HeldCount(23) = %d, want 0 (T23 waits holding nothing)", n)
	}
	if s.ActiveTable().Resource("R1") != coldRes {
		t.Fatal("skipped shard's resource was recopied, not reused in place")
	}
	if rid, _, ok := s.ActiveTable().WaitingOn(23); !ok || rid != "H1" {
		t.Fatalf("WaitingOn(23) = (%s, %v), want (H1, true)", rid, ok)
	}
	if s.ActiveTable().Blocked(21) {
		t.Fatal("aborted waiter survived the incremental recopy")
	}
}

// TestSnapshotIncrementalDeletes drives the merge in the delete
// direction: resources, transactions and waits that vanish from a
// recopied shard must vanish from the merge.
func TestSnapshotIncrementalDeletes(t *testing.T) {
	a, b := New(), New()
	a.Request(1, "Ra", lock.S)
	b.Request(2, "Rb1", lock.X)
	b.Request(2, "Rb2", lock.X)
	b.Request(3, "Rb1", lock.S) // waiter

	s := NewSnapshot()
	fullCopy(s, []*Table{a, b}, 1)
	if s.ActiveTable().Resource("Rb1") == nil || !s.ActiveTable().Blocked(3) || s.ActiveTable().HeldCount(2) != 1 {
		t.Fatal("setup: first round incomplete")
	}

	b.Abort(3) // waiter leaves: Rb1 queue empties
	b.Abort(2) // holder leaves: Rb1 and Rb2 disappear entirely

	s.BeginRound(2)
	s.CopyShard(b, 1, 2)
	s.FinishShard(1)
	s.MergeShards([]int{1})

	if r := s.ActiveTable().Resource("Rb1"); r != nil {
		t.Fatalf("Rb1 survived its last waiter: %v", r)
	}
	if s.HeldCount(3) != 0 || s.ActiveTable().HeldCount(2) != 0 || s.ActiveTable().Blocked(3) {
		t.Fatal("aborted transactions survived the incremental merge")
	}
	if got := s.ActiveTable().String(); got != "" {
		t.Fatalf("merge not empty after the last waiter left:\n%s", got)
	}
	if err := s.ActiveTable().Validate(); err != nil {
		t.Fatalf("post-delete merge invalid: %v", err)
	}
}

// TestSnapshotViewActiveFilter checks what a copy takes: only resources
// that can contribute graph elements (a queue or a blocked conversion)
// reach the merged table and the detection view, and nothing of the
// rest — not even held counts: only a waiter is priced, by its stamp.
func TestSnapshotViewActiveFilter(t *testing.T) {
	quiet, busy := New(), New()
	quiet.Request(1, "Q1", lock.S) // held, nobody waiting
	quiet.Request(2, "Q2", lock.X) // held, nobody waiting
	busy.Request(3, "B1", lock.X)
	busy.RequestHeld(4, "B1", lock.S, 2) // waiter -> active, holding two locks elsewhere

	s := NewSnapshot()
	fullCopy(s, []*Table{quiet, busy}, 1)

	var seen []ResourceID
	s.View().EachResource(func(r *Resource) bool {
		seen = append(seen, r.ID())
		return true
	})
	if len(seen) != 1 || seen[0] != "B1" {
		t.Fatalf("view iterated %v, want just the active B1", seen)
	}
	if s.ActiveTable().Resource("Q1") != nil || s.ActiveTable().Resource("Q2") != nil {
		t.Fatal("quiet resources were copied into the merged table")
	}
	if s.HeldCount(1) != 0 || s.HeldCount(2) != 0 || s.HeldCount(3) != 0 || s.HeldCount(4) != 2 {
		t.Fatalf("held counts = %d %d %d %d, want 0 0 0 2 (only the waiter is priced)",
			s.HeldCount(1), s.HeldCount(2), s.HeldCount(3), s.HeldCount(4))
	}

	// Draining the busy queue and recopying must empty the view.
	busy.Abort(4)
	s.BeginRound(2)
	s.CopyShard(busy, 1, 2)
	s.FinishShard(1)
	s.MergeShards([]int{1})
	n := 0
	s.View().EachResource(func(*Resource) bool { n++; return true })
	if n != 0 {
		t.Fatalf("view iterated %d resources after the last waiter left, want 0", n)
	}
}

// addBystanders gives tb n transactions (ids from 1000) holding four
// locks each that nobody else wants.
func addBystanders(tb *Table, n int) {
	for b := 0; b < n; b++ {
		for j := 0; j < 4; j++ {
			tb.Request(TxnID(1000+b), ResourceID(fmt.Sprintf("by/%d/%d", b, j)), lock.S)
		}
	}
}

// addStormTableau adds hwbench's deadlock_storm tableau to tb: 24
// contended resources — four X-rings of four transactions (T1..T16)
// and four TDR-2 tableaux of three (T17..T28).
func addStormTableau(tb *Table) {
	txn := TxnID(1)
	for ring := 0; ring < 4; ring++ {
		for j := 0; j < 4; j++ {
			tb.Request(txn+TxnID(j), ResourceID(fmt.Sprintf("ring%d/%d", ring, j)), lock.X)
		}
		for j := 0; j < 4; j++ {
			tb.Request(txn+TxnID(j), ResourceID(fmt.Sprintf("ring%d/%d", ring, (j+1)%4)), lock.X)
		}
		txn += 4
	}
	for k := 0; k < 4; k++ {
		q, h := ResourceID(fmt.Sprintf("tab%d/q", k)), ResourceID(fmt.Sprintf("tab%d/h", k))
		t1, t2, t3 := txn, txn+1, txn+2
		tb.Request(t1, q, lock.IS)
		tb.Request(t3, h, lock.X)
		tb.Request(t2, q, lock.X) // blocks
		tb.Request(t3, q, lock.S) // queued behind T2, compatible with tm
		tb.Request(t1, h, lock.S) // closes the cycle
		txn += 3
	}
}

// TestSnapshotIncrementalRoundAllocs extends the arena-reuse guarantee
// to the incremental round shapes: steady-state rounds that recopy one
// dirty shard out of several, or the shard a resolution rewrote, allocate
// (nearly) nothing.
func TestSnapshotIncrementalRoundAllocs(t *testing.T) {
	cold, hot := New(), New()
	buildSnapshotFixture(t, cold)
	hot.Request(30, "H1", lock.X)

	s := NewSnapshot()
	fullCopy(s, []*Table{cold, hot}, 1)
	epoch := uint64(1)
	dirty := []int{1}
	allocs := testing.AllocsPerRun(50, func() {
		epoch++
		hot.Request(31, "H1", lock.S)
		hot.Abort(31)
		s.BeginRound(2)
		s.CopyShard(hot, 1, epoch)
		s.FinishShard(1)
		s.MergeShards(dirty)
	})
	if allocs > 4 {
		t.Errorf("incremental round allocates %.0f objects/run after warm-up, want <= 4", allocs)
	}

	// The storm shape: 2048 inactive resources beside 24 active ones, and
	// every round a detector applies an abort and a TDR-2 repositioning
	// to the snapshot, so the next round has the shard to recopy. With
	// the whole-table copy this cost 25 allocations a round (the
	// resolution dropped the freelist aliases, and the recopy paid for
	// it); now the three that RepositionAVST itself makes, and change.
	storm := New()
	addBystanders(storm, 512)
	addStormTableau(storm)
	s = NewSnapshot()
	round := func() {
		s.BeginRound(1)
		if !s.ShardClean(0, 1) {
			s.CopyShard(storm, 0, 1)
			s.FinishShard(0)
			s.MergeShards([]int{0})
		}
		v := s.View()
		v.Abort(1)
		v.RepositionAVST("tab0/q", 19, nil, nil)
		v.ScheduleQueue("tab0/q")
	}
	round()
	if s.ShardClean(0, 1) {
		t.Fatal("shard still clean after a resolution was applied to its records")
	}
	if allocs := testing.AllocsPerRun(50, round); allocs > 8 {
		t.Errorf("storm-shaped round allocates %.0f objects/run after warm-up, want <= 8", allocs)
	}
}

// BenchmarkSnapshotFullCopy prices a from-scratch round over one shard:
// every resource contended, or — the table a copy must not be
// proportional to — 2048 held resources nobody waits on.
func BenchmarkSnapshotFullCopy(b *testing.B) {
	contended := New()
	for i := 0; i < 64; i++ {
		rid := ResourceID(fmt.Sprintf("R%02d", i))
		contended.Request(TxnID(i+1), rid, lock.S)
		contended.Request(TxnID(i+65), rid, lock.S)
		contended.Request(TxnID(i+129), rid, lock.X) // one waiter per resource
	}
	inactive := New()
	addBystanders(inactive, 512)
	for _, tc := range []struct {
		name string
		src  *Table
	}{{"contended64", contended}, {"inactive2048", inactive}} {
		b.Run(tc.name, func(b *testing.B) {
			s := NewSnapshot()
			srcs := []*Table{tc.src}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Reset()
				fullCopy(s, srcs, 1)
			}
		})
	}
}
