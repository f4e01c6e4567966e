package granularity

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"testing"
	"time"

	"hwtwbg"
)

// testGraph is Gray's granularity DAG: a database with an area and an
// index, file1 reachable through both, file2 through the area only.
//
//	db ----> area ----> file1, file2
//	db ----> index ---> file1
//	file1 -> rec1, rec2

func testGraph(t *testing.T) *Graph {
	t.Helper()
	g := New()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(g.AddRoot("db"))
	must(g.Add("area", "db"))
	must(g.Add("index", "db"))
	must(g.Add("file1", "area", "index"))
	must(g.Add("file2", "area"))
	must(g.Add("rec1", "file1"))
	must(g.Add("rec2", "file1"))
	return g
}

func TestBuildErrors(t *testing.T) {
	g := testGraph(t)
	if err := g.AddRoot("db"); !errors.Is(err, ErrDuplicateNode) {
		t.Fatalf("err = %v", err)
	}
	if err := g.Add("x", "nope"); !errors.Is(err, ErrNoParent) {
		t.Fatalf("err = %v", err)
	}
	if err := g.Add("orphan"); err == nil {
		t.Fatal("parentless Add must fail")
	}
	if !g.Contains("rec1") || g.Contains("zzz") {
		t.Fatal("Contains wrong")
	}
}

func TestSealAfterUse(t *testing.T) {
	g := testGraph(t)
	lm := hwtwbg.Open(hwtwbg.Options{})
	defer lm.Close()
	tx := lm.Begin()
	defer tx.Abort()
	if err := g.Lock(context.Background(), tx, "rec1", hwtwbg.S); err != nil {
		t.Fatal(err)
	}
	if err := g.AddRoot("late"); err == nil {
		t.Fatal("graph must seal after first use")
	}
}

func TestIntention(t *testing.T) {
	cases := map[hwtwbg.Mode]hwtwbg.Mode{
		hwtwbg.IS: hwtwbg.IS, hwtwbg.S: hwtwbg.IS,
		hwtwbg.IX: hwtwbg.IX, hwtwbg.SIX: hwtwbg.IX, hwtwbg.X: hwtwbg.IX,
	}
	for m, want := range cases {
		if got := Intention(m); got != want {
			t.Errorf("Intention(%v) = %v, want %v", m, got, want)
		}
	}
}

func TestWriterTakesAllPaths(t *testing.T) {
	g := testGraph(t)
	lm := hwtwbg.Open(hwtwbg.Options{})
	defer lm.Close()
	ctx := context.Background()
	tx := lm.Begin()
	defer tx.Abort()
	if err := g.Lock(ctx, tx, "rec1", hwtwbg.X); err != nil {
		t.Fatal(err)
	}
	for rid, want := range map[hwtwbg.ResourceID]hwtwbg.Mode{
		"db": hwtwbg.IX, "area": hwtwbg.IX, "index": hwtwbg.IX,
		"file1": hwtwbg.IX, "rec1": hwtwbg.X,
	} {
		if got := tx.Mode(rid); got != want {
			t.Errorf("Mode(%s) = %v, want %v", rid, got, want)
		}
	}
	if got := tx.Mode("file2"); got != hwtwbg.NL {
		t.Errorf("file2 = %v, want untouched", got)
	}
	// The intentions are compatible, so a reader of another record of
	// the same file proceeds: fine-grained concurrency.
	rd := lm.Begin()
	defer rd.Abort()
	if err := g.Lock(ctx, rd, "rec2", hwtwbg.S); err != nil {
		t.Fatal(err)
	}
}

func TestReaderTakesOnePath(t *testing.T) {
	g := testGraph(t)
	lm := hwtwbg.Open(hwtwbg.Options{})
	defer lm.Close()
	tx := lm.Begin()
	defer tx.Abort()
	if err := g.Lock(context.Background(), tx, "rec1", hwtwbg.S); err != nil {
		t.Fatal(err)
	}
	if got := tx.Mode("index"); got != hwtwbg.NL {
		t.Errorf("reader touched the index path: %v", got)
	}
	if got := tx.Mode("area"); got != hwtwbg.IS {
		t.Errorf("area = %v", got)
	}
	// Gray's asymmetry: a writer coming through the index still meets
	// the reader, at file1, where the reader's record chain holds IS.
	w := lm.Begin()
	defer w.Abort()
	park(t, lm, g, w, "file1", hwtwbg.X)
	if got := w.Mode("index"); got != hwtwbg.IX {
		t.Errorf("writer holds %v on index, want IX before blocking at file1", got)
	}
}

// park runs g.Lock for tx on its own goroutine, returns once tx is
// blocked, and delivers the Lock's result on the channel.
func park(t *testing.T, lm *hwtwbg.Manager, g *Graph, tx *hwtwbg.Txn, id hwtwbg.ResourceID, mode hwtwbg.Mode) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- g.Lock(context.Background(), tx, id, mode) }()
	for !lm.Blocked(tx.ID()) {
		select {
		case err := <-done:
			t.Fatalf("%v's %v on %s did not block: %v", tx.ID(), mode, id, err)
		default:
			runtime.Gosched()
		}
	}
	return done
}

// TestAncestorsTopological: a writer takes its intentions on every
// ancestor, ancestors before descendants, and a reader on the
// first-parent path, root first.
func TestAncestorsTopological(t *testing.T) {
	g := testGraph(t)
	if got, want := g.ancestors("rec1"), []hwtwbg.ResourceID{"db", "area", "index", "file1"}; !slices.Equal(got, want) {
		t.Errorf("ancestors(rec1) = %v, want %v", got, want)
	}
	if got, want := g.readPath("rec1"), []hwtwbg.ResourceID{"db", "area", "file1"}; !slices.Equal(got, want) {
		t.Errorf("readPath(rec1) = %v, want %v", got, want)
	}
}

// TestSIXPattern: S then IX on a file is SIX, the scan-and-update mode.
// Readers of its records pass, but another writer's IX blocks at the
// file, mid-path, and completes once the scanner commits.
func TestSIXPattern(t *testing.T) {
	g := testGraph(t)
	lm := hwtwbg.Open(hwtwbg.Options{})
	defer lm.Close()
	ctx := context.Background()
	scan := lm.Begin()
	defer scan.Abort()
	if err := g.Lock(ctx, scan, "file1", hwtwbg.S); err != nil {
		t.Fatal(err)
	}
	if err := g.Lock(ctx, scan, "file1", hwtwbg.IX); err != nil {
		t.Fatal(err)
	}
	if got := scan.Mode("file1"); got != hwtwbg.SIX {
		t.Fatalf("file1 = %v, want SIX", got)
	}
	rd := lm.Begin()
	defer rd.Abort()
	if err := g.Lock(ctx, rd, "rec2", hwtwbg.S); err != nil {
		t.Fatalf("IS traffic must pass SIX: %v", err)
	}
	w := lm.Begin()
	defer w.Abort()
	done := park(t, lm, g, w, "rec1", hwtwbg.X)
	if got := w.Mode("index"); got != hwtwbg.IX || w.Mode("file1") != hwtwbg.NL {
		t.Fatalf("writer holds %v on index and %v on file1, want IX and nothing yet", got, w.Mode("file1"))
	}
	if err := scan.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := w.Mode("rec1"); got != hwtwbg.X {
		t.Fatalf("rec1 = %v", got)
	}
}

// TestCoarseLockBlocksAtTheTop: an S lock on the whole database blocks
// a writer at the first step of its path, holding nothing; when the
// reader commits, the writer takes its whole path.
func TestCoarseLockBlocksAtTheTop(t *testing.T) {
	g := testGraph(t)
	lm := hwtwbg.Open(hwtwbg.Options{})
	defer lm.Close()
	coarse := lm.Begin()
	defer coarse.Abort()
	if err := g.Lock(context.Background(), coarse, "db", hwtwbg.S); err != nil {
		t.Fatal(err)
	}
	w := lm.Begin()
	defer w.Abort()
	done := park(t, lm, g, w, "rec1", hwtwbg.X)
	for _, rid := range []hwtwbg.ResourceID{"db", "area", "index", "file1", "rec1"} {
		if got := w.Mode(rid); got != hwtwbg.NL {
			t.Fatalf("writer blocked at db holding %v on %s", got, rid)
		}
	}
	if err := coarse.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := w.Mode("db"); got != hwtwbg.IX {
		t.Fatalf("db = %v", got)
	}
}

func TestUnknownNode(t *testing.T) {
	g := testGraph(t)
	lm := hwtwbg.Open(hwtwbg.Options{})
	defer lm.Close()
	tx := lm.Begin()
	defer tx.Abort()
	if err := g.Lock(context.Background(), tx, "nope", hwtwbg.S); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v", err)
	}
}

func TestUpgradeConvertsIntentions(t *testing.T) {
	g := testGraph(t)
	lm := hwtwbg.Open(hwtwbg.Options{})
	defer lm.Close()
	ctx := context.Background()
	tx := lm.Begin()
	defer tx.Abort()
	if err := g.Lock(ctx, tx, "rec1", hwtwbg.S); err != nil {
		t.Fatal(err)
	}
	if err := g.Lock(ctx, tx, "rec1", hwtwbg.X); err != nil {
		t.Fatal(err)
	}
	if got := tx.Mode("area"); got != hwtwbg.IX {
		t.Errorf("area after upgrade = %v", got)
	}
	if got := tx.Mode("rec1"); got != hwtwbg.X {
		t.Errorf("rec1 = %v", got)
	}
}

// TestConcurrentBlockAndGrant: a writer blocks an index scan until it
// commits — through the public, blocking API.
func TestConcurrentBlockAndGrant(t *testing.T) {
	g := testGraph(t)
	lm := hwtwbg.Open(hwtwbg.Options{})
	defer lm.Close()
	ctx := context.Background()
	w := lm.Begin()
	if err := g.Lock(ctx, w, "rec1", hwtwbg.X); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	scanner := lm.Begin()
	go func() { done <- g.Lock(ctx, scanner, "index", hwtwbg.S) }()
	select {
	case err := <-done:
		t.Fatalf("index scan returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := scanner.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestDeadlockThroughIntentionsResolved: crossing scan-then-write
// transactions deadlock on intention locks alone. T1 scans the area and
// T2 the index; T1's write to rec1 converts the area to SIX and blocks
// for IX at the index, and T2's write to rec2 blocks for IX at the area.
// One activation of the unchanged detector aborts exactly one of them,
// and the survivor's acquisition completes.
func TestDeadlockThroughIntentionsResolved(t *testing.T) {
	g := testGraph(t)
	lm := hwtwbg.Open(hwtwbg.Options{})
	defer lm.Close()
	ctx := context.Background()
	t1, t2 := lm.Begin(), lm.Begin()
	defer t1.Abort()
	defer t2.Abort()
	if err := g.Lock(ctx, t1, "area", hwtwbg.S); err != nil {
		t.Fatal(err)
	}
	if err := g.Lock(ctx, t2, "index", hwtwbg.S); err != nil {
		t.Fatal(err)
	}
	oneSurvivor(t, lm,
		park(t, lm, g, t1, "rec1", hwtwbg.X),
		park(t, lm, g, t2, "rec2", hwtwbg.X))
}

// oneSurvivor checks that lm is deadlocked, that one activation of its
// detector aborts exactly one of the parked acquisitions, and that the
// other completes.
func oneSurvivor(t *testing.T, lm *hwtwbg.Manager, parked ...<-chan error) {
	t.Helper()
	if !lm.Deadlocked() {
		t.Fatalf("expected a deadlock:\n%s", lm.Snapshot())
	}
	if st := lm.Detect(); st.Aborted != 1 || st.Repositioned != 0 {
		t.Fatalf("activation = %+v, want exactly one victim", st)
	}
	var survivors int
	for _, done := range parked {
		switch err := <-done; {
		case err == nil:
			survivors++
		case !errors.Is(err, hwtwbg.ErrAborted):
			t.Fatal(err)
		}
	}
	if survivors != 1 {
		t.Fatalf("%d survivors, want 1", survivors)
	}
	if lm.Deadlocked() {
		t.Fatal("deadlock left behind")
	}
}

// TestDAGDeadlockDetected: a writer stopped mid-path keeps the intentions
// it already took. T2's write to rec2 holds IX on the area and waits for
// IX on the index, which T1 scans; T1's scan of the area then waits for
// T2, and the detector breaks the cycle.
func TestDAGDeadlockDetected(t *testing.T) {
	g := testGraph(t)
	lm := hwtwbg.Open(hwtwbg.Options{})
	defer lm.Close()
	t1, t2 := lm.Begin(), lm.Begin()
	defer t1.Abort()
	defer t2.Abort()
	if err := g.Lock(context.Background(), t1, "index", hwtwbg.S); err != nil {
		t.Fatal(err)
	}
	w := park(t, lm, g, t2, "rec2", hwtwbg.X)
	if got := t2.Mode("area"); got != hwtwbg.IX {
		t.Fatalf("T2 holds %v on area, want IX", got)
	}
	oneSurvivor(t, lm, w, park(t, lm, g, t1, "area", hwtwbg.S))
}

// TestDAGConstructionErrors: a node with several parents is defined only
// if all of them are, a node is never defined twice, and a failed Add
// leaves the graph as it was.
func TestDAGConstructionErrors(t *testing.T) {
	g := testGraph(t)
	if err := g.Add("file3", "area", "nope"); !errors.Is(err, ErrNoParent) {
		t.Fatalf("err = %v", err)
	}
	if g.Contains("file3") {
		t.Fatal("a failed Add defined its node")
	}
	if err := g.Add("file1", "index"); !errors.Is(err, ErrDuplicateNode) {
		t.Fatalf("err = %v", err)
	}
	if err := g.Add("rec1", "file1", "file2"); !errors.Is(err, ErrDuplicateNode) {
		t.Fatalf("err = %v", err)
	}
	if got, want := g.ancestors("rec1"), []hwtwbg.ResourceID{"db", "area", "index", "file1"}; !slices.Equal(got, want) {
		t.Errorf("ancestors(rec1) = %v after failed Adds, want %v", got, want)
	}
}

// TestWriterLocksAllPaths: an X on file1 takes IX on both of its paths
// and covers its records, so a scan of the index blocks at the index
// and a reader of a record blocks at file1, until the writer commits.
func TestWriterLocksAllPaths(t *testing.T) {
	g := testGraph(t)
	lm := hwtwbg.Open(hwtwbg.Options{})
	defer lm.Close()
	w := lm.Begin()
	defer w.Abort()
	if err := g.Lock(context.Background(), w, "file1", hwtwbg.X); err != nil {
		t.Fatal(err)
	}
	for rid, want := range map[hwtwbg.ResourceID]hwtwbg.Mode{
		"db": hwtwbg.IX, "area": hwtwbg.IX, "index": hwtwbg.IX, "file1": hwtwbg.X,
	} {
		if got := w.Mode(rid); got != want {
			t.Errorf("Mode(%s) = %v, want %v", rid, got, want)
		}
	}
	scan, rd := lm.Begin(), lm.Begin()
	defer scan.Abort()
	defer rd.Abort()
	scanned := park(t, lm, g, scan, "index", hwtwbg.S)
	read := park(t, lm, g, rd, "rec2", hwtwbg.S)
	if got := rd.Mode("area"); got != hwtwbg.IS || rd.Mode("file1") != hwtwbg.NL {
		t.Fatalf("reader holds %v on area and %v on file1, want IS and nothing yet", got, rd.Mode("file1"))
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, done := range []<-chan error{scanned, read} {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestReaderUsesOnePath: a reader takes no intention off its one path,
// so a writer of the whole index, which also reaches the record, is
// granted at once.
func TestReaderUsesOnePath(t *testing.T) {
	g := testGraph(t)
	lm := hwtwbg.Open(hwtwbg.Options{})
	defer lm.Close()
	ctx := context.Background()
	rd, w := lm.Begin(), lm.Begin()
	defer rd.Abort()
	defer w.Abort()
	if err := g.Lock(ctx, rd, "rec1", hwtwbg.S); err != nil {
		t.Fatal(err)
	}
	if err := g.Lock(ctx, w, "index", hwtwbg.X); err != nil {
		t.Fatal(err)
	}
	if got := w.Mode("db"); got != hwtwbg.IX {
		t.Errorf("writer holds %v on db, want IX", got)
	}
}

// TestDAGBlockedMidPathResume: T1's scan of the index stops T2's write to
// rec1 at the index, after its IX on db and the area; when T1 commits,
// T2 takes the rest of its ancestors and the record.
func TestDAGBlockedMidPathResume(t *testing.T) {
	g := testGraph(t)
	lm := hwtwbg.Open(hwtwbg.Options{})
	defer lm.Close()
	t1, t2 := lm.Begin(), lm.Begin()
	defer t1.Abort()
	defer t2.Abort()
	if err := g.Lock(context.Background(), t1, "index", hwtwbg.S); err != nil {
		t.Fatal(err)
	}
	done := park(t, lm, g, t2, "rec1", hwtwbg.X)
	if t2.Mode("area") != hwtwbg.IX || t2.Mode("index") != hwtwbg.NL {
		t.Fatalf("T2 holds %v on area and %v on index, want IX and nothing yet", t2.Mode("area"), t2.Mode("index"))
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for rid, want := range map[hwtwbg.ResourceID]hwtwbg.Mode{
		"index": hwtwbg.IX, "file1": hwtwbg.IX, "rec1": hwtwbg.X,
	} {
		if got := t2.Mode(rid); got != want {
			t.Errorf("Mode(%s) = %v, want %v", rid, got, want)
		}
	}
}

// testTree is a tree-shaped graph, each node with one parent:
//
//	db -> area1 -> file1 -> rec1, rec2
//	db -> area2 -> file2 -> rec3
func testTree(t *testing.T) *Graph {
	t.Helper()
	g := New()
	if err := g.AddRoot("db"); err != nil {
		t.Fatal(err)
	}
	for _, n := range [][2]hwtwbg.ResourceID{
		{"area1", "db"}, {"area2", "db"}, {"file1", "area1"}, {"file2", "area2"},
		{"rec1", "file1"}, {"rec2", "file1"}, {"rec3", "file2"},
	} {
		if err := g.Add(n[0], n[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestHierarchyConstruction(t *testing.T) {
	g := testTree(t)
	if err := g.AddRoot("db"); !errors.Is(err, ErrDuplicateNode) {
		t.Fatalf("err = %v", err)
	}
	if err := g.Add("rec1", "file1"); !errors.Is(err, ErrDuplicateNode) {
		t.Fatalf("err = %v", err)
	}
	if err := g.Add("x", "nope"); !errors.Is(err, ErrNoParent) {
		t.Fatalf("err = %v", err)
	}
	if !g.Contains("rec3") || g.Contains("x") {
		t.Fatal("Contains wrong")
	}
	if got, want := g.readPath("rec1"), []hwtwbg.ResourceID{"db", "area1", "file1"}; !slices.Equal(got, want) {
		t.Errorf("readPath(rec1) = %v, want %v", got, want)
	}
	if got := g.readPath("db"); len(got) != 0 {
		t.Errorf("readPath(db) = %v, want none", got)
	}
}

// TestDAGEquivalentToTreeOnTrees: on a tree every node has one root path,
// so a writer's all-ancestors chain is a reader's path, and a tree
// needs no locker of its own.
func TestDAGEquivalentToTreeOnTrees(t *testing.T) {
	g := testTree(t)
	for id := range g.parents {
		if a, r := g.ancestors(id), g.readPath(id); !slices.Equal(a, r) {
			t.Errorf("%s: ancestors %v, read path %v", id, a, r)
		}
	}
}

// TestLockAcquiresIntentions: a record writer holds IX down its path, a
// reader of a sibling record passes, and a reader of the same record
// blocks at the record itself with its intentions granted.
func TestLockAcquiresIntentions(t *testing.T) {
	g := testTree(t)
	lm := hwtwbg.Open(hwtwbg.Options{})
	defer lm.Close()
	ctx := context.Background()
	w, sib, rd := lm.Begin(), lm.Begin(), lm.Begin()
	defer w.Abort()
	defer sib.Abort()
	defer rd.Abort()
	if err := g.Lock(ctx, w, "rec1", hwtwbg.X); err != nil {
		t.Fatal(err)
	}
	for rid, want := range map[hwtwbg.ResourceID]hwtwbg.Mode{
		"db": hwtwbg.IX, "area1": hwtwbg.IX, "file1": hwtwbg.IX, "rec1": hwtwbg.X, "area2": hwtwbg.NL,
	} {
		if got := w.Mode(rid); got != want {
			t.Errorf("Mode(%s) = %v, want %v", rid, got, want)
		}
	}
	if err := g.Lock(ctx, sib, "rec2", hwtwbg.S); err != nil {
		t.Fatal(err)
	}
	done := park(t, lm, g, rd, "rec1", hwtwbg.S)
	if got := rd.Mode("file1"); got != hwtwbg.IS {
		t.Fatalf("reader holds %v on file1, want IS", got)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestBlockedMidPathAndResume: T1's S on area1 stops T2's write to rec1
// at area1, holding IX on db alone; when T1 commits, T2 takes the rest
// of the path.
func TestBlockedMidPathAndResume(t *testing.T) {
	g := testTree(t)
	lm := hwtwbg.Open(hwtwbg.Options{})
	defer lm.Close()
	t1, t2 := lm.Begin(), lm.Begin()
	defer t1.Abort()
	defer t2.Abort()
	if err := g.Lock(context.Background(), t1, "area1", hwtwbg.S); err != nil {
		t.Fatal(err)
	}
	done := park(t, lm, g, t2, "rec1", hwtwbg.X)
	for rid, want := range map[hwtwbg.ResourceID]hwtwbg.Mode{
		"db": hwtwbg.IX, "area1": hwtwbg.NL, "file1": hwtwbg.NL, "rec1": hwtwbg.NL,
	} {
		if got := t2.Mode(rid); got != want {
			t.Fatalf("blocked T2 holds %v on %s, want %v", got, rid, want)
		}
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := t2.Mode("rec1"); got != hwtwbg.X {
		t.Fatalf("rec1 = %v", got)
	}
}

// TestLockUnknownNode: an unknown node is refused before any intention
// is taken, and the transaction goes on.
func TestLockUnknownNode(t *testing.T) {
	g := testTree(t)
	lm := hwtwbg.Open(hwtwbg.Options{})
	defer lm.Close()
	ctx := context.Background()
	tx := lm.Begin()
	defer tx.Abort()
	if err := g.Lock(ctx, tx, "rec9", hwtwbg.X); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v", err)
	}
	if held := tx.Held(); len(held) != 0 {
		t.Fatalf("refused Lock left %v held", held)
	}
	if err := g.Lock(ctx, tx, "rec3", hwtwbg.X); err != nil {
		t.Fatal(err)
	}
}

// TestMGLDeadlockDetected: T1 scans file1 and T2 file2, then each writes
// a record of the other's file; the IX intentions deadlock at the files
// and the unchanged detector breaks the cycle.
func TestMGLDeadlockDetected(t *testing.T) {
	g := testTree(t)
	lm := hwtwbg.Open(hwtwbg.Options{})
	defer lm.Close()
	ctx := context.Background()
	t1, t2 := lm.Begin(), lm.Begin()
	defer t1.Abort()
	defer t2.Abort()
	if err := g.Lock(ctx, t1, "file1", hwtwbg.S); err != nil {
		t.Fatal(err)
	}
	if err := g.Lock(ctx, t2, "file2", hwtwbg.S); err != nil {
		t.Fatal(err)
	}
	oneSurvivor(t, lm,
		park(t, lm, g, t1, "rec3", hwtwbg.X),
		park(t, lm, g, t2, "rec1", hwtwbg.X))
}

// TestUpgradePath: re-locking a record in a stronger mode converts it in
// place, and its ancestors' IS with it to IX.
func TestUpgradePath(t *testing.T) {
	g := testTree(t)
	lm := hwtwbg.Open(hwtwbg.Options{})
	defer lm.Close()
	ctx := context.Background()
	tx := lm.Begin()
	defer tx.Abort()
	if err := g.Lock(ctx, tx, "rec1", hwtwbg.S); err != nil {
		t.Fatal(err)
	}
	if got := tx.Mode("file1"); got != hwtwbg.IS {
		t.Fatalf("file1 = %v", got)
	}
	if err := g.Lock(ctx, tx, "rec1", hwtwbg.X); err != nil {
		t.Fatal(err)
	}
	for rid, want := range map[hwtwbg.ResourceID]hwtwbg.Mode{
		"db": hwtwbg.IX, "area1": hwtwbg.IX, "file1": hwtwbg.IX, "rec1": hwtwbg.X,
	} {
		if got := tx.Mode(rid); got != want {
			t.Errorf("Mode(%s) after upgrade = %v, want %v", rid, got, want)
		}
	}
}
