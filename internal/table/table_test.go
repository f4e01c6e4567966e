package table

import (
	"strings"
	"testing"

	"hwtwbg/internal/lock"
)

// mustGrant issues a request that the test expects to be granted.
func mustGrant(t *testing.T, tb *Table, txn TxnID, rid ResourceID, m lock.Mode) {
	t.Helper()
	g, err := tb.Request(txn, rid, m)
	if err != nil {
		t.Fatalf("Request(%v,%s,%v): %v", txn, rid, m, err)
	}
	if !g {
		t.Fatalf("Request(%v,%s,%v) unexpectedly blocked:\n%s", txn, rid, m, tb)
	}
}

// mustBlock issues a request that the test expects to block.
func mustBlock(t *testing.T, tb *Table, txn TxnID, rid ResourceID, m lock.Mode) {
	t.Helper()
	g, err := tb.Request(txn, rid, m)
	if err != nil {
		t.Fatalf("Request(%v,%s,%v): %v", txn, rid, m, err)
	}
	if g {
		t.Fatalf("Request(%v,%s,%v) unexpectedly granted:\n%s", txn, rid, m, tb)
	}
}

// example31 builds the situation of Example 3.1 of the paper just before
// T1's re-request.
func example31(t *testing.T) *Table {
	t.Helper()
	tb := New()
	mustGrant(t, tb, 1, "R1", lock.IS)
	mustGrant(t, tb, 2, "R1", lock.IX)
	mustBlock(t, tb, 3, "R1", lock.S)
	mustBlock(t, tb, 4, "R1", lock.X)
	return tb
}

// TestExample31 reproduces Example 3.1 (experiment E3): T1 holding IS on
// R1 re-requests S; Conv(IS,S)=S is incompatible with T2's IX, so T1
// blocks in the holder list. The printed state must match the paper
// (modulo the paper's own typo in the total mode: by its Section 2
// definition tm = Conv(Conv(Conv(IS,S),IX),NL) = SIX, not the printed IX).
func TestExample31(t *testing.T) {
	tb := example31(t)
	if got := tb.Resource("R1").String(); got != "R1(IX): Holder((T1, IS, NL) (T2, IX, NL)) Queue((T3, S) (T4, X))" {
		t.Fatalf("before conversion:\n got %s", got)
	}
	mustBlock(t, tb, 1, "R1", lock.S)
	want := "R1(SIX): Holder((T1, IS, S) (T2, IX, NL)) Queue((T3, S) (T4, X))"
	if got := tb.Resource("R1").String(); got != want {
		t.Fatalf("after conversion:\n got  %s\n want %s", got, want)
	}
	if rid, m, ok := tb.WaitingOn(1); !ok || rid != "R1" || m != lock.S {
		t.Fatalf("WaitingOn(T1) = %v,%v,%v; want R1,S,true", rid, m, ok)
	}
	if !tb.Upgrading(1) {
		t.Fatal("T1 must be marked as an upgrader")
	}
	if tb.Upgrading(3) {
		t.Fatal("T3 waits in the queue, not as an upgrader")
	}
}

// buildExample41 constructs the two-resource situation of Example 4.1.
func buildExample41(t *testing.T) *Table {
	t.Helper()
	tb := New()
	mustGrant(t, tb, 1, "R1", lock.IX)
	mustGrant(t, tb, 2, "R1", lock.IS)
	mustGrant(t, tb, 3, "R1", lock.IX)
	mustGrant(t, tb, 4, "R1", lock.IS)
	mustGrant(t, tb, 7, "R2", lock.IS)
	mustBlock(t, tb, 2, "R1", lock.S)  // conversion IS->S, blocked by IX holders
	mustBlock(t, tb, 1, "R1", lock.S)  // conversion IX->SIX, blocked by T3's IX
	mustBlock(t, tb, 5, "R1", lock.IX) // queue
	mustBlock(t, tb, 6, "R1", lock.S)  // queue
	mustBlock(t, tb, 7, "R1", lock.IX) // queue
	mustBlock(t, tb, 8, "R2", lock.X)  // queue
	mustBlock(t, tb, 9, "R2", lock.IX) // queue
	mustBlock(t, tb, 3, "R2", lock.S)  // queue
	mustBlock(t, tb, 4, "R2", lock.X)  // queue
	return tb
}

// TestExample41State checks that the construction reproduces the exact
// lock-table lines the paper prints for Example 4.1 (experiment E4),
// including the UPR-2 ordering of T1 before T2 in the holder list.
func TestExample41State(t *testing.T) {
	tb := buildExample41(t)
	wantR1 := "R1(SIX): Holder((T1, IX, SIX) (T2, IS, S) (T3, IX, NL) (T4, IS, NL)) Queue((T5, IX) (T6, S) (T7, IX))"
	wantR2 := "R2(IS): Holder((T7, IS, NL)) Queue((T8, X) (T9, IX) (T3, S) (T4, X))"
	if got := tb.Resource("R1").String(); got != wantR1 {
		t.Errorf("R1:\n got  %s\n want %s", got, wantR1)
	}
	if got := tb.Resource("R2").String(); got != wantR2 {
		t.Errorf("R2:\n got  %s\n want %s", got, wantR2)
	}
}

// TestExample41TDR2 applies TDR-2 at T3's junction as the paper does
// (victim T8) and checks the repositioned queue, then the Step 3 queue
// scheduling and the resulting modified situation of Figure 4.2.
func TestExample41TDR2(t *testing.T) {
	tb := buildExample41(t)
	av, st := tb.RepositionAVST("R2", 3, nil, nil)
	if len(av) != 2 || av[0].Txn != 9 || av[1].Txn != 3 {
		t.Fatalf("AV = %v, want [(T9, IX) (T3, S)]", av)
	}
	if len(st) != 1 || st[0].Txn != 8 {
		t.Fatalf("ST = %v, want [(T8, X)]", st)
	}
	want := "R2(IS): Holder((T7, IS, NL)) Queue((T9, IX) (T3, S) (T8, X) (T4, X))"
	if got := tb.Resource("R2").String(); got != want {
		t.Fatalf("after reposition:\n got  %s\n want %s", got, want)
	}
	grants := tb.ScheduleQueue("R2")
	if len(grants) != 1 || grants[0].Txn != 9 || grants[0].Mode != lock.IX {
		t.Fatalf("grants = %v, want T9 granted IX", grants)
	}
	// The paper's modified situation: T9 granted, T3 still blocked.
	want = "R2(IX): Holder((T9, IX, NL) (T7, IS, NL)) Queue((T3, S) (T8, X) (T4, X))"
	if got := tb.Resource("R2").String(); got != want {
		t.Fatalf("modified situation:\n got  %s\n want %s", got, want)
	}
	if tb.Blocked(9) {
		t.Error("T9 must be unblocked after the grant")
	}
	if !tb.Blocked(3) || !tb.Blocked(8) {
		t.Error("T3 and T8 must remain blocked")
	}
}

// TestExample51 reproduces the lock-table side of Example 5.1: the
// initial situation, then T2's abort, which must grant T3 at R1 (T3 is
// then no longer deadlocked), yielding the final states the paper prints.
func TestExample51(t *testing.T) {
	tb := New()
	mustGrant(t, tb, 1, "R1", lock.S)
	mustGrant(t, tb, 2, "R2", lock.S)
	mustGrant(t, tb, 3, "R2", lock.S)
	mustBlock(t, tb, 2, "R1", lock.X)
	mustBlock(t, tb, 3, "R1", lock.S) // compatible but queued behind T2
	mustBlock(t, tb, 1, "R2", lock.X)

	wantR1 := "R1(S): Holder((T1, S, NL)) Queue((T2, X) (T3, S))"
	wantR2 := "R2(S): Holder((T2, S, NL) (T3, S, NL)) Queue((T1, X))"
	if got := tb.Resource("R1").String(); got != wantR1 {
		t.Fatalf("R1:\n got  %s\n want %s", got, wantR1)
	}
	if got := tb.Resource("R2").String(); got != wantR2 {
		t.Fatalf("R2:\n got  %s\n want %s", got, wantR2)
	}

	grants := tb.Abort(2)
	if len(grants) != 1 || grants[0].Txn != 3 || grants[0].Resource != "R1" {
		t.Fatalf("aborting T2 should grant T3 at R1, got %v", grants)
	}
	wantR1 = "R1(S): Holder((T3, S, NL) (T1, S, NL)) Queue()"
	wantR2 = "R2(S): Holder((T3, S, NL)) Queue((T1, X))"
	if got := tb.Resource("R1").String(); got != wantR1 {
		t.Errorf("R1 after abort:\n got  %s\n want %s", got, wantR1)
	}
	if got := tb.Resource("R2").String(); got != wantR2 {
		t.Errorf("R2 after abort:\n got  %s\n want %s", got, wantR2)
	}
}

func TestImmediateGrantAndCompatibility(t *testing.T) {
	tb := New()
	mustGrant(t, tb, 1, "A", lock.S)
	mustGrant(t, tb, 2, "A", lock.S)
	mustGrant(t, tb, 3, "A", lock.IS)
	mustBlock(t, tb, 4, "A", lock.IX) // IX incompatible with S
	// A compatible request after the queue is non-empty must still queue.
	mustBlock(t, tb, 5, "A", lock.IS)
	q := tb.Resource("A").Queue()
	if len(q) != 2 || q[0].Txn != 4 || q[1].Txn != 5 {
		t.Fatalf("queue = %v", q)
	}
}

func TestCoveredReRequestIsNoop(t *testing.T) {
	tb := New()
	mustGrant(t, tb, 1, "A", lock.SIX)
	before := tb.Resource("A").String()
	mustGrant(t, tb, 1, "A", lock.IS) // SIX covers IS
	mustGrant(t, tb, 1, "A", lock.S)  // SIX covers S
	mustGrant(t, tb, 1, "A", lock.IX) // SIX covers IX
	if got := tb.Resource("A").String(); got != before {
		t.Fatalf("covered re-requests must not change state:\n got  %s\n want %s", got, before)
	}
}

func TestConversionGrantedImmediately(t *testing.T) {
	tb := New()
	mustGrant(t, tb, 1, "A", lock.IS)
	mustGrant(t, tb, 2, "A", lock.IS)
	mustGrant(t, tb, 1, "A", lock.IX) // IX compatible with T2's IS
	if got := tb.HeldMode(1, "A"); got != lock.IX {
		t.Fatalf("T1 mode = %v, want IX", got)
	}
	if got := tb.Resource("A").TotalMode(); got != lock.IX {
		t.Fatalf("tm = %v, want IX", got)
	}
}

func TestRequestWhileBlockedFails(t *testing.T) {
	tb := New()
	mustGrant(t, tb, 1, "A", lock.X)
	mustBlock(t, tb, 2, "A", lock.X)
	if _, err := tb.Request(2, "B", lock.S); err != ErrBlocked {
		t.Fatalf("err = %v, want ErrBlocked", err)
	}
	// Blocked upgraders cannot issue requests either.
	mustGrant(t, tb, 3, "C", lock.IS)
	mustGrant(t, tb, 4, "C", lock.IX)
	mustBlock(t, tb, 3, "C", lock.S)
	if _, err := tb.Request(3, "D", lock.S); err != ErrBlocked {
		t.Fatalf("err = %v, want ErrBlocked", err)
	}
}

func TestCommitWhileBlockedFails(t *testing.T) {
	tb := New()
	mustGrant(t, tb, 1, "A", lock.X)
	mustBlock(t, tb, 2, "A", lock.S)
	if _, err := tb.Release(2); err != ErrCommitWhileBlocked {
		t.Fatalf("err = %v, want ErrCommitWhileBlocked", err)
	}
}

func TestBadArgs(t *testing.T) {
	tb := New()
	if _, err := tb.Request(0, "A", lock.S); err != ErrBadTxn {
		t.Fatalf("txn 0: err = %v", err)
	}
	if _, err := tb.Request(1, "A", lock.NL); err != ErrBadMode {
		t.Fatalf("mode NL: err = %v", err)
	}
	if _, err := tb.Request(1, "A", lock.Mode(99)); err != ErrBadMode {
		t.Fatalf("mode 99: err = %v", err)
	}
	if _, err := tb.Release(0); err != ErrBadTxn {
		t.Fatalf("release 0: err = %v", err)
	}
	if g, err := tb.Release(42); err != nil || g != nil {
		t.Fatalf("release of unknown txn: %v, %v", g, err)
	}
	if g := tb.Abort(42); g != nil {
		t.Fatalf("abort of unknown txn: %v", g)
	}
}

func TestReleaseGrantsQueueInOrder(t *testing.T) {
	tb := New()
	mustGrant(t, tb, 1, "A", lock.X)
	mustBlock(t, tb, 2, "A", lock.S)
	mustBlock(t, tb, 3, "A", lock.IS)
	mustBlock(t, tb, 4, "A", lock.X)
	mustBlock(t, tb, 5, "A", lock.S)
	grants, err := tb.Release(1)
	if err != nil {
		t.Fatal(err)
	}
	// S and IS are granted; X stops the scan; T5 stays queued behind it.
	if len(grants) != 2 || grants[0].Txn != 2 || grants[1].Txn != 3 {
		t.Fatalf("grants = %v, want T2 then T3", grants)
	}
	q := tb.Resource("A").Queue()
	if len(q) != 2 || q[0].Txn != 4 || q[1].Txn != 5 {
		t.Fatalf("queue = %v, want [(T4, X) (T5, S)]", q)
	}
}

func TestReleaseGrantsBlockedConversionFirst(t *testing.T) {
	tb := New()
	mustGrant(t, tb, 1, "A", lock.IS)
	mustGrant(t, tb, 2, "A", lock.IX)
	mustBlock(t, tb, 1, "A", lock.S) // blocked on T2's IX; tm = SIX
	mustBlock(t, tb, 3, "A", lock.S) // queued: Comp(S, SIX) is false
	grants, err := tb.Release(2)
	if err != nil {
		t.Fatal(err)
	}
	// T1's conversion to S is granted, then T3's S from the queue.
	if len(grants) != 2 || grants[0].Txn != 1 || grants[0].Mode != lock.S || grants[1].Txn != 3 {
		t.Fatalf("grants = %v", grants)
	}
	r := tb.Resource("A")
	if h, _ := r.Holder(1); h.Granted != lock.S || h.Blocked != lock.NL {
		t.Fatalf("T1 entry = %v", h)
	}
	if got := r.TotalMode(); got != lock.S {
		t.Fatalf("tm = %v, want S", got)
	}
}

// A pending (blocked) conversion must hold back compatible queue grants
// through the total mode: that is the whole point of tm vs. group mode.
func TestTotalModeBlocksQueueBehindPendingUpgrade(t *testing.T) {
	tb := New()
	mustGrant(t, tb, 1, "A", lock.IS)
	mustGrant(t, tb, 2, "A", lock.IS)
	mustGrant(t, tb, 3, "A", lock.IS)
	mustBlock(t, tb, 1, "A", lock.X) // conversion IS->X pending; tm = X
	mustBlock(t, tb, 4, "A", lock.IS)
	grants, err := tb.Release(2)
	if err != nil {
		t.Fatal(err)
	}
	// T1's upgrade still blocked by T3; T4's IS would be compatible with
	// the group mode (IS) but must NOT be granted because tm is X.
	if len(grants) != 0 {
		t.Fatalf("grants = %v, want none", grants)
	}
	grants, err = tb.Release(3)
	if err != nil {
		t.Fatal(err)
	}
	// Now T1 upgrades to X; T4 must stay queued.
	if len(grants) != 1 || grants[0].Txn != 1 || grants[0].Mode != lock.X {
		t.Fatalf("grants = %v, want T1 X", grants)
	}
	if !tb.Blocked(4) {
		t.Fatal("T4 must remain blocked behind the upgraded X lock")
	}
}

func TestAbortQueueHeadSchedulesQueue(t *testing.T) {
	tb := New()
	mustGrant(t, tb, 1, "A", lock.S)
	mustBlock(t, tb, 2, "A", lock.X)
	mustBlock(t, tb, 3, "A", lock.S)
	grants := tb.Abort(2)
	if len(grants) != 1 || grants[0].Txn != 3 {
		t.Fatalf("grants = %v, want T3", grants)
	}
}

func TestAbortMiddleQueueMemberGrantsNothing(t *testing.T) {
	tb := New()
	mustGrant(t, tb, 1, "A", lock.S)
	mustBlock(t, tb, 2, "A", lock.X)
	mustBlock(t, tb, 3, "A", lock.S)
	grants := tb.Abort(3)
	if len(grants) != 0 {
		t.Fatalf("grants = %v, want none", grants)
	}
	if q := tb.Resource("A").Queue(); len(q) != 1 || q[0].Txn != 2 {
		t.Fatalf("queue = %v", q)
	}
}

func TestAbortBlockedUpgraderReleasesGrantToo(t *testing.T) {
	tb := New()
	mustGrant(t, tb, 1, "A", lock.S)
	mustGrant(t, tb, 2, "A", lock.S)
	mustBlock(t, tb, 2, "A", lock.X) // upgrade S->X blocked by T1
	mustBlock(t, tb, 3, "A", lock.S) // queued behind tm=X
	grants := tb.Abort(2)
	// T2 disappears entirely; tm drops to S; T3's S is granted.
	if len(grants) != 1 || grants[0].Txn != 3 {
		t.Fatalf("grants = %v, want T3", grants)
	}
	if _, ok := tb.Resource("A").Holder(2); ok {
		t.Fatal("T2 must be fully removed")
	}
}

func TestReleaseRemovesEmptyResource(t *testing.T) {
	tb := New()
	mustGrant(t, tb, 1, "A", lock.X)
	if _, err := tb.Release(1); err != nil {
		t.Fatal(err)
	}
	if tb.Resource("A") != nil {
		t.Fatal("empty resource must be deleted from the table")
	}
	if got := len(tb.Txns()); got != 0 {
		t.Fatalf("Txns() = %v", tb.Txns())
	}
}

func TestHeldAndTxns(t *testing.T) {
	tb := New()
	mustGrant(t, tb, 1, "A", lock.S)
	mustGrant(t, tb, 1, "B", lock.IX)
	mustGrant(t, tb, 2, "C", lock.X)
	held := tb.Held(1)
	if len(held) != 2 || held[0] != "A" || held[1] != "B" {
		t.Fatalf("Held(T1) = %v", held)
	}
	txns := tb.Txns()
	if len(txns) != 2 || txns[0] != 1 || txns[1] != 2 {
		t.Fatalf("Txns() = %v", txns)
	}
	if got := tb.HeldMode(1, "B"); got != lock.IX {
		t.Fatalf("HeldMode(T1,B) = %v", got)
	}
	if got := tb.HeldMode(1, "C"); got != lock.NL {
		t.Fatalf("HeldMode(T1,C) = %v", got)
	}
	if got := tb.HeldMode(1, "Z"); got != lock.NL {
		t.Fatalf("HeldMode(T1,Z) = %v", got)
	}
}

func TestUPR1GroupsCompatibleUpgrades(t *testing.T) {
	// Two IS holders block on S upgrades behind an IX holder; their
	// blocked modes are compatible (S,S), so UPR-1 groups them and a
	// single release grants both.
	tb := New()
	mustGrant(t, tb, 1, "A", lock.IS)
	mustGrant(t, tb, 2, "A", lock.IS)
	mustGrant(t, tb, 3, "A", lock.IX)
	mustBlock(t, tb, 1, "A", lock.S)
	mustBlock(t, tb, 2, "A", lock.S)
	hs := tb.Resource("A").Holders()
	if hs[0].Txn != 2 || hs[1].Txn != 1 {
		// UPR-1 puts T2 right before the first compatible blocked entry (T1).
		t.Fatalf("holders = %v, want T2 before T1", hs)
	}
	grants, err := tb.Release(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(grants) != 2 {
		t.Fatalf("grants = %v, want both upgrades", grants)
	}
}

func TestUPR3DeadlockedUpgradersStayBehind(t *testing.T) {
	// Classic conversion deadlock: two S holders both upgrade to X.
	// Neither can ever be granted while the other exists
	// (Observation 3.1 case 3).
	tb := New()
	mustGrant(t, tb, 1, "A", lock.S)
	mustGrant(t, tb, 2, "A", lock.S)
	mustBlock(t, tb, 1, "A", lock.X)
	mustBlock(t, tb, 2, "A", lock.X)
	hs := tb.Resource("A").Holders()
	if len(hs) != 2 || hs[0].Blocked != lock.X || hs[1].Blocked != lock.X {
		t.Fatalf("holders = %v", hs)
	}
	// UPR-1 does not apply (X incompatible with X); UPR-2 does not apply
	// (!Comp(X, S)); UPR-3 puts T2 after T1.
	if hs[0].Txn != 1 || hs[1].Txn != 2 {
		t.Fatalf("holders = %v, want T1 before T2", hs)
	}
}

// TestUPR2OrdersOneWaySchedulable reproduces Observation 3.1(2): if
// Comp(bmi, gmj) and !Comp(gmi, bmj), Ti can be scheduled before Tj but
// not vice versa, so UPR-2 must put Ti first even if Tj blocked earlier.
func TestUPR2OrdersOneWaySchedulable(t *testing.T) {
	// From Example 4.1: T2 (IS->S) blocks first, then T1 (IX->SIX).
	// Comp(bm1=SIX, gm2=IS) holds and !Comp(bm2=S, gm1=IX), so T1 goes
	// before T2.
	tb := New()
	mustGrant(t, tb, 1, "A", lock.IX)
	mustGrant(t, tb, 2, "A", lock.IS)
	mustGrant(t, tb, 3, "A", lock.IX) // keeps both upgrades blocked
	mustBlock(t, tb, 2, "A", lock.S)
	mustBlock(t, tb, 1, "A", lock.S) // IX->SIX
	hs := tb.Resource("A").Holders()
	if hs[0].Txn != 1 || hs[1].Txn != 2 {
		t.Fatalf("holders = %v, want T1 before T2 (UPR-2)", hs)
	}
	// Release T3: T1's SIX is now compatible with the other holder's
	// granted mode (IS), grant it; T2's S then waits on T1's SIX.
	grants, err := tb.Release(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(grants) != 1 || grants[0].Txn != 1 || grants[0].Mode != lock.SIX {
		t.Fatalf("grants = %v, want T1 SIX", grants)
	}
	if !tb.Blocked(2) {
		t.Fatal("T2's upgrade must still be blocked by T1's SIX")
	}
}

func TestNoLivelock(t *testing.T) {
	// A stream of compatible IS requests arriving after an X waiter must
	// queue behind it, so the X waiter is granted as soon as the holders
	// leave: FIFO prevents livelock (Section 1's critique of [8]).
	tb := New()
	mustGrant(t, tb, 1, "A", lock.IS)
	mustBlock(t, tb, 2, "A", lock.X)
	for i := TxnID(3); i < 20; i++ {
		mustBlock(t, tb, i, "A", lock.IS)
	}
	grants, err := tb.Release(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(grants) == 0 || grants[0].Txn != 2 || grants[0].Mode != lock.X {
		t.Fatalf("grants = %v, want T2's X first", grants)
	}
	if len(grants) != 1 {
		t.Fatalf("grants = %v; IS requests must stay behind the X lock", grants)
	}
}

func TestStringFormatting(t *testing.T) {
	tb := New()
	mustGrant(t, tb, 1, "R1", lock.S)
	mustGrant(t, tb, 2, "R2", lock.X)
	mustBlock(t, tb, 1, "R2", lock.S)
	out := tb.String()
	if !strings.Contains(out, "R1(S): Holder((T1, S, NL)) Queue()") {
		t.Errorf("missing R1 line in:\n%s", out)
	}
	if !strings.Contains(out, "R2(X): Holder((T2, X, NL)) Queue((T1, S))") {
		t.Errorf("missing R2 line in:\n%s", out)
	}
	if g := (Grant{Txn: 3, Resource: "R9", Mode: lock.IX}); g.String() != "T3+=IX@R9" {
		t.Errorf("Grant.String() = %q", g.String())
	}
}

func TestCloneIsDeep(t *testing.T) {
	tb := buildExample41(t)
	c := tb.Clone()
	if c.String() != tb.String() {
		t.Fatalf("clone differs:\n%s\nvs\n%s", c.String(), tb.String())
	}
	// Mutating the clone must not affect the original.
	c.Abort(1)
	if c.String() == tb.String() {
		t.Fatal("clone shares state with original")
	}
	if !tb.Blocked(1) {
		t.Fatal("original lost T1's blocked state")
	}
	// Wait edges in the clone must point at cloned resources.
	if rid, _, ok := c.WaitingOn(5); !ok || rid != "R1" {
		t.Fatalf("clone WaitingOn(T5) = %v,%v", rid, ok)
	}
}

func TestWaitingOnNotBlocked(t *testing.T) {
	tb := New()
	mustGrant(t, tb, 1, "A", lock.S)
	if _, _, ok := tb.WaitingOn(1); ok {
		t.Fatal("granted txn must not be waiting")
	}
	if _, _, ok := tb.WaitingOn(99); ok {
		t.Fatal("unknown txn must not be waiting")
	}
}

func TestRepositionAVSTEdgeCases(t *testing.T) {
	tb := New()
	if av, st := tb.RepositionAVST("nope", 1, nil, nil); av != nil || st != nil {
		t.Fatal("missing resource must return nil, nil")
	}
	mustGrant(t, tb, 1, "A", lock.S)
	mustBlock(t, tb, 2, "A", lock.X)
	if av, st := tb.RepositionAVST("A", 99, nil, nil); av != nil || st != nil {
		t.Fatal("txn not in queue must return nil, nil")
	}
	// Prefix of a single incompatible entry: AV empty, ST = {T2}.
	av, st := tb.RepositionAVST("A", 2, nil, nil)
	if len(av) != 0 || len(st) != 1 || st[0].Txn != 2 {
		t.Fatalf("av=%v st=%v", av, st)
	}
}

func TestScheduleQueueMissingResource(t *testing.T) {
	tb := New()
	if g := tb.ScheduleQueue("nope"); g != nil {
		t.Fatalf("grants = %v", g)
	}
}
