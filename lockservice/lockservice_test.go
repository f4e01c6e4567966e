package lockservice

import (
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"hwtwbg"
)

func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, hwtwbg.Options{Period: 2 * time.Millisecond})
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

func dial(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestBasicSession(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	id, err := c.Begin()
	if err != nil || id == 0 {
		t.Fatalf("Begin: %v %v", id, err)
	}
	if err := c.Lock("a", hwtwbg.S); err != nil {
		t.Fatal(err)
	}
	if err := c.Lock("b", hwtwbg.X); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(snap, "a(S)") || !strings.Contains(snap, "b(X)") {
		t.Fatalf("snapshot:\n%s", snap)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	snap, err = c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap != "" {
		t.Fatalf("snapshot after commit:\n%s", snap)
	}
}

func TestBlockingAndGrantAcrossClients(t *testing.T) {
	_, addr := startServer(t)
	a := dial(t, addr)
	b := dial(t, addr)
	if _, err := a.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := a.Lock("r", hwtwbg.X); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- b.Lock("r", hwtwbg.S) }()
	select {
	case err := <-got:
		t.Fatalf("b's lock returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-got; err != nil {
		t.Fatalf("b.Lock: %v", err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockAcrossClients(t *testing.T) {
	_, addr := startServer(t)
	a := dial(t, addr)
	b := dial(t, addr)
	if _, err := a.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := a.Lock("x", hwtwbg.X); err != nil {
		t.Fatal(err)
	}
	if err := b.Lock("y", hwtwbg.X); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	go func() { errs <- a.Lock("y", hwtwbg.X) }()
	go func() { errs <- b.Lock("x", hwtwbg.X) }()
	e1, e2 := <-errs, <-errs
	aborted := 0
	if errors.Is(e1, ErrAborted) {
		aborted++
	}
	if errors.Is(e2, ErrAborted) {
		aborted++
	}
	if aborted != 1 {
		t.Fatalf("e1=%v e2=%v; want exactly one ABORTED", e1, e2)
	}
	// The victim's LOCK returns as soon as its abort is applied, which is
	// before the activation is folded into the stats and the cost model:
	// poll until both have counted it.
	var st Stats
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		var err error
		if st, err = a.Stats(); err != nil {
			t.Fatal(err)
		}
		if (st.Aborted >= 1 && st.CostModelDeadlocks >= 1) || time.Now().After(deadline) {
			break
		}
	}
	if st.Aborted != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// The extended wire fields round-trip from a live server: the
	// detector ran at least once (shard hold > 0) and at least three
	// grants landed in the shards (a:x, b:y, and the survivor's second
	// lock handed off by the victim's release).
	if st.Runs < 1 || st.ShardHoldMax <= 0 || st.ShardHoldMax < st.ShardHoldLast {
		t.Fatalf("shard-hold fields not populated: %+v", st)
	}
	if st.ShardGrants < 3 {
		t.Fatalf("shard_grants = %d, want >= 3", st.ShardGrants)
	}
	// The cost model charged the resolved deadlock and the victim's wait
	// span, and the journal counted the emitted records.
	if st.CostModelSamples < 1 || st.CostModelDeadlocks < 1 {
		t.Fatalf("cost model fields not populated: %+v", st)
	}
	if st.CostModelPersist <= 0 || st.CostModelPeriod <= 0 {
		t.Fatalf("cost model estimates not populated: %+v", st)
	}
	if st.JournalEmitted == 0 {
		t.Fatalf("journal_emitted = 0, want the trace counted: %+v", st)
	}
}

func TestTryLock(t *testing.T) {
	_, addr := startServer(t)
	a := dial(t, addr)
	b := dial(t, addr)
	if _, err := a.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := a.TryLock("r", hwtwbg.X); err != nil {
		t.Fatal(err)
	}
	if err := b.TryLock("r", hwtwbg.S); !errors.Is(err, ErrBusy) {
		t.Fatalf("err = %v, want ErrBusy", err)
	}
	if err := a.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := b.TryLock("r", hwtwbg.S); err != nil {
		t.Fatal(err)
	}
}

func TestDisconnectAbortsTransaction(t *testing.T) {
	srv, addr := startServer(t)
	a := dial(t, addr)
	b := dial(t, addr)
	if _, err := a.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := a.Lock("r", hwtwbg.X); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- b.Lock("r", hwtwbg.X) }()
	time.Sleep(10 * time.Millisecond)
	// a vanishes without committing; the server must abort its
	// transaction and grant b.
	a.Close()
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("b.Lock after a's disconnect: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("b never granted; server state:\n%s", srv.Manager().Snapshot())
	}
}

func TestProtocolErrors(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	// LOCK without BEGIN.
	if err := c.Lock("r", hwtwbg.S); err == nil || errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v", err)
	}
	if err := c.Commit(); err == nil {
		t.Fatal("COMMIT without txn must fail")
	}
	if _, err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	// Double BEGIN.
	if _, err := c.Begin(); err == nil {
		t.Fatal("double BEGIN must fail")
	}
	// Bad mode and bad arity via raw round trips.
	if resp, err := c.roundTrip("LOCK r Q"); err != nil || !strings.HasPrefix(resp, "ERR") {
		t.Fatalf("resp=%q err=%v", resp, err)
	}
	if resp, err := c.roundTrip("LOCK r"); err != nil || !strings.HasPrefix(resp, "ERR") {
		t.Fatalf("resp=%q err=%v", resp, err)
	}
	if resp, err := c.roundTrip("FROB"); err != nil || !strings.HasPrefix(resp, "ERR") {
		t.Fatalf("resp=%q err=%v", resp, err)
	}
	// ABORT is idempotent-ish: with and without a txn.
	if err := c.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := c.Abort(); err != nil {
		t.Fatal(err)
	}
	// BEGIN works again after ABORT.
	if _, err := c.Begin(); err != nil {
		t.Fatal(err)
	}
}

func TestManyClientsStress(t *testing.T) {
	_, addr := startServer(t)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			resources := []string{"p", "q", "r"}
			for i := 0; i < 20; i++ {
			retry:
				if _, err := c.Begin(); err != nil {
					t.Error(err)
					return
				}
				for j := 0; j < 3; j++ {
					res := resources[(n+i+j)%len(resources)]
					mode := hwtwbg.S
					if (n+j)%2 == 0 {
						mode = hwtwbg.X
					}
					err := c.Lock(res, mode)
					if errors.Is(err, ErrAborted) {
						time.Sleep(time.Duration(n+1) * time.Millisecond)
						goto retry
					}
					if err != nil {
						t.Errorf("lock: %v", err)
						return
					}
				}
				if err := c.Commit(); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestServerCloseIsIdempotent(t *testing.T) {
	srv, addr := startServer(t)
	c := dial(t, addr)
	if _, err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestLockAllSession(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	if _, err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	reqs := []hwtwbg.LockRequest{
		{Resource: "a", Mode: hwtwbg.S},
		{Resource: "b", Mode: hwtwbg.X},
		{Resource: "c", Mode: hwtwbg.IX},
	}
	if err := c.LockAll(reqs); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"a(S)", "b(X)", "c(IX)"} {
		if !strings.Contains(snap, want) {
			t.Fatalf("snapshot missing %s:\n%s", want, snap)
		}
	}
	// A second client's batch blocks on the held key and resumes after
	// commit, exactly like a single LOCK.
	c2 := dial(t, addr)
	if _, err := c2.Begin(); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		got <- c2.LockAll([]hwtwbg.LockRequest{
			{Resource: "z", Mode: hwtwbg.S},
			{Resource: "b", Mode: hwtwbg.S},
		})
	}()
	select {
	case err := <-got:
		t.Fatalf("c2's batch returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-got; err != nil {
		t.Fatalf("blocked batch after commit: %v", err)
	}
	if err := c2.Commit(); err != nil {
		t.Fatal(err)
	}
	// An empty batch never touches the wire.
	if err := c2.LockAll(nil); err != nil {
		t.Fatal(err)
	}
}

func TestLockAllProtocolErrors(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	// LOCKALL without BEGIN.
	if resp, err := c.roundTrip("LOCKALL r S"); err != nil || !strings.HasPrefix(resp, "ERR") {
		t.Fatalf("resp=%q err=%v", resp, err)
	}
	if _, err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	// Missing pairs, odd arity, and a bad mode.
	for _, line := range []string{"LOCKALL", "LOCKALL r S q", "LOCKALL r Q"} {
		if resp, err := c.roundTrip(line); err != nil || !strings.HasPrefix(resp, "ERR") {
			t.Fatalf("%q: resp=%q err=%v", line, resp, err)
		}
	}
	// The session survives the usage errors.
	if err := c.LockAll([]hwtwbg.LockRequest{{Resource: "r", Mode: hwtwbg.S}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
}
