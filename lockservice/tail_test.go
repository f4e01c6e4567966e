package lockservice

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"hwtwbg"
	"hwtwbg/journal"
)

// startTailServer runs a server with one shard and a deliberately tiny
// journal ring, so wraparound (and therefore tail lag) is cheap to
// provoke deterministically.
func startTailServer(t *testing.T, perRing int) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, hwtwbg.Options{Shards: 1, JournalSize: perRing})
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

// runTxns drives n single-lock transactions through the wire, each
// journaling begin+request+grant+commit records.
func runTxns(t *testing.T, c *Client, n int, res string) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := c.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := c.Lock(res, hwtwbg.X); err != nil {
			t.Fatal(err)
		}
		if err := c.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTailBoundedDeliversAndReturnsToCommandMode(t *testing.T) {
	_, addr := startTailServer(t, 1024)
	work := dial(t, addr)
	runTxns(t, work, 3, "tail-r")

	c := dial(t, addr)
	var recs []journal.Record
	cur, err := c.TailJournal(TailOptions{
		FromOldest: true,
		Max:        8,
		OnBatch: func(b TailBatch) error {
			if b.Lost != 0 {
				t.Errorf("unexpected lag: batch %+v", b)
			}
			recs = append(recs, b.Records...)
			return nil
		},
	})
	if err != nil {
		t.Fatalf("TailJournal: %v", err)
	}
	if len(recs) != 8 {
		t.Fatalf("tailed %d records, want 8", len(recs))
	}
	if len(cur) == 0 {
		t.Fatal("TailJournal returned no cursor")
	}
	var kinds []string
	for i := range recs {
		kinds = append(kinds, recs[i].Kind.String())
	}
	joined := strings.Join(kinds, " ")
	if !strings.Contains(joined, "grant") || !strings.Contains(joined, "begin") {
		t.Fatalf("tail saw kinds %q, want grants and begins", joined)
	}
	// A bounded tail ends with END and the session returns to the
	// request/reply protocol on the same connection.
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping after bounded tail: %v", err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.TailSessions < 1 {
		t.Fatalf("tail_sessions = %d, want >= 1", st.TailSessions)
	}
}

// TestTailResumeFromCursorAfterDrop is the resumable-cursor contract
// end to end: a tail session ends mid-stream (the consumer stops and
// its connection dies), the journal wraps past the dropped session's
// position, and a brand-new connection resuming from the returned
// cursor gets the overwritten span accounted in BATCH lost — with the
// deliveries themselves gap-free from the resume point.
func TestTailResumeFromCursorAfterDrop(t *testing.T) {
	_, addr := startTailServer(t, 16)
	work := dial(t, addr)
	runTxns(t, work, 2, "r")

	// Session 1: consume one batch, then drop (ErrStopTail ends the
	// session client-side; the connection is then abandoned).
	c1 := dial(t, addr)
	var got1 int
	cur, err := c1.TailJournal(TailOptions{
		FromOldest: true,
		OnBatch: func(b TailBatch) error {
			got1 += len(b.Records)
			return ErrStopTail
		},
	})
	if err != nil {
		t.Fatalf("session 1: %v", err)
	}
	if got1 == 0 || len(cur) == 0 {
		t.Fatalf("session 1 consumed %d records, cursor %v", got1, cur)
	}
	c1.Close()

	// The consumer is away; 32 more transactions wrap every 16-slot ring
	// far past the dropped cursor.
	runTxns(t, work, 32, "r")

	// Session 2, new connection: resume from the dropped session's
	// cursor. The overwritten span must surface as lost, explicitly.
	c2 := dial(t, addr)
	var lost uint64
	var got2 int
	cur2, err := c2.TailJournal(TailOptions{
		Cursor: cur,
		Max:    16,
		OnBatch: func(b TailBatch) error {
			lost += b.Lost
			got2 += len(b.Records)
			return nil
		},
	})
	if err != nil {
		t.Fatalf("session 2: %v", err)
	}
	if lost == 0 {
		t.Fatal("resume past wraparound reported zero lag; overwritten records vanished silently")
	}
	if got2 != 16 {
		t.Fatalf("session 2 delivered %d records, want 16", got2)
	}
	for i, c := range cur2 {
		if c < cur[i] {
			t.Fatalf("cursor ran backwards: ring %d %d -> %d", i, cur[i], cur2[i])
		}
	}
	st, err := c2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.TailSessions < 2 {
		t.Fatalf("tail_sessions = %d, want >= 2", st.TailSessions)
	}
	if st.TailLagged == 0 {
		t.Fatal("tail_lagged = 0, want > 0 after a lagged resume")
	}
}

func TestTailFromNowSeesOnlyNewRecords(t *testing.T) {
	_, addr := startTailServer(t, 1024)
	work := dial(t, addr)
	runTxns(t, work, 4, "old")

	c := dial(t, addr)
	done := make(chan error, 1)
	var mu sync.Mutex
	var recs []journal.Record
	go func() {
		_, err := c.TailJournal(TailOptions{
			FromOldest: false,
			Max:        4,
			Heartbeat:  10 * time.Millisecond,
			OnBatch: func(b TailBatch) error {
				mu.Lock()
				recs = append(recs, b.Records...)
				mu.Unlock()
				return nil
			},
		})
		done <- err
	}()
	// Give the tail time to register its "now" position, then generate
	// the records it should see.
	time.Sleep(50 * time.Millisecond)
	runTxns(t, work, 4, "new")
	if err := <-done; err != nil {
		t.Fatalf("TailJournal: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := range recs {
		if res := recs[i].Resource(); res == "old" {
			t.Fatalf("from=now delivered a pre-subscription record: %s", recs[i].String())
		}
	}
	if len(recs) != 4 {
		t.Fatalf("tailed %d records, want 4", len(recs))
	}
}

func TestTailHeartbeatCarriesCounters(t *testing.T) {
	_, addr := startTailServer(t, 1024)
	work := dial(t, addr)
	runTxns(t, work, 2, "hb-r")

	c := dial(t, addr)
	var hbs []TailHeartbeat
	_, err := c.TailJournal(TailOptions{
		FromOldest: true,
		Heartbeat:  5 * time.Millisecond,
		OnHeartbeat: func(hb TailHeartbeat) error {
			hbs = append(hbs, hb)
			if len(hbs) >= 2 {
				return ErrStopTail
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("TailJournal: %v", err)
	}
	if len(hbs) < 2 {
		t.Fatalf("got %d heartbeats, want 2", len(hbs))
	}
	if hbs[0].Seq != 1 || hbs[1].Seq != 2 {
		t.Fatalf("heartbeat seqs %d,%d, want 1,2", hbs[0].Seq, hbs[1].Seq)
	}
	if hbs[0].Emitted == 0 || hbs[0].Grants == 0 {
		t.Fatalf("heartbeat counters empty: %+v", hbs[0])
	}
}

// TestTailIdleHeartbeatSleeps: a heartbeat is not progress, so an idle
// session sleeps between sweeps whatever its hb=. With hb=1ns that is
// one heartbeat per 5 ms poll, about 20 in 100 ms, not thousands.
func TestTailIdleHeartbeatSleeps(t *testing.T) {
	_, addr := startTailServer(t, 64)
	conn, r := rawConn(t, addr)
	if reply := exchange(t, conn, r, "TAIL from=now hb=1ns\n"); !strings.HasPrefix(reply, "OK ") {
		t.Fatalf("TAIL reply %q", reply)
	}
	conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	hbs := 0
	for {
		line, err := r.ReadString('\n')
		if errors.Is(err, os.ErrDeadlineExceeded) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasPrefix(line, "HB ") {
			hbs++
		}
	}
	if hbs == 0 || hbs > 40 {
		t.Fatalf("idle tail with hb=1ns wrote %d heartbeats in 100ms, want 1 to 40", hbs)
	}
}

// TestTailUntrustedBatchCount: a BATCH header's count is the server's
// word. A count of 2^50 followed by one record and a hang-up costs one
// record and ends in an error with no batch delivered; a count that is
// negative or does not fit an int is malformed.
func TestTailUntrustedBatchCount(t *testing.T) {
	rec := journal.Record{Kind: journal.KindBegin, Txn: 1}
	txt, err := rec.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ frames, want string }{
		{"BATCH ring=0 n=1125899906842624 next=0 lost=0\n" + string(txt) + "\n", "TAIL record 1 of 1125899906842624"},
		{"BATCH ring=0 n=-1 next=0 lost=0\n", "malformed BATCH field"},
		{"BATCH ring=0 n=9223372036854775808 next=0 lost=0\n", "malformed BATCH field"},
	} {
		// The server sends its reply and hangs up.
		cs, ss := net.Pipe()
		go func() {
			bufio.NewReader(ss).ReadString('\n')
			fmt.Fprintf(ss, "OK rings=1 cursor=0\n%s", tc.frames)
			ss.Close()
		}()
		c := NewClient(cs)
		batches := 0
		_, err := c.TailJournal(TailOptions{FromOldest: true, OnBatch: func(TailBatch) error { batches++; return nil }})
		if err == nil || !strings.Contains(err.Error(), tc.want) || batches != 0 {
			t.Errorf("%.40q: %d batches, err %v; want none and %q", tc.frames, batches, err, tc.want)
		}
		c.Close()
	}
}

func TestTailJournalDisabled(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, hwtwbg.Options{JournalSize: -1})
	t.Cleanup(func() { srv.Close() })
	c := dial(t, ln.Addr().String())
	if _, err := c.TailJournal(TailOptions{Max: 1}); err == nil || !strings.Contains(err.Error(), "journal disabled") {
		t.Fatalf("TailJournal error = %v, want journal disabled", err)
	}
	// The refused TAIL leaves the session usable.
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestTailBadArguments(t *testing.T) {
	_, addr := startTailServer(t, 64)
	c := dial(t, addr)
	// A cursor whose ring count does not match the server's is refused,
	// not silently misaligned.
	if _, err := c.TailJournal(TailOptions{Cursor: TailCursor{1, 2, 3, 4, 5, 6, 7}, Max: 1}); err == nil ||
		!strings.Contains(err.Error(), "cursor") {
		t.Fatalf("mismatched cursor error = %v", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	// Malformed argument values are refused with ERR, and the session
	// stays in command mode.
	conn, r := rawConn(t, addr)
	for _, arg := range []string{"from=sideways", "max=-1", "max=x", "hb=0", "hb=nope", "cursor=1,x", "bogus=1", "oldest"} {
		if reply := exchange(t, conn, r, "TAIL "+arg+"\n"); !strings.HasPrefix(reply, "ERR ") {
			t.Fatalf("TAIL %s: reply %q, want ERR", arg, reply)
		}
	}
	if reply := exchange(t, conn, r, "PING\n"); reply != "PONG" {
		t.Fatalf("PING after refused TAILs: %q", reply)
	}
}

// TestTailConcurrentWithWorkload hammers the manager with lock traffic
// while bounded TAIL sessions and /journal.bin snapshots read the same
// journal: the readers' slot lock-word discipline must hold under the race
// detector.
func TestTailConcurrentWithWorkload(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, hwtwbg.Options{JournalSize: 256, Shards: 2})
	t.Cleanup(func() { srv.Close() })
	lm := srv.Manager()
	debug := httptest.NewServer(DebugHandler(lm))
	defer debug.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup

	// Writers: contended transactions keep every ring hot.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ctx.Err() == nil; i++ {
				tx := lm.Begin()
				tx.SetTag(uint64(g + 1))
				res := hwtwbg.ResourceID(fmt.Sprintf("r%d", i%3))
				if err := tx.Lock(context.Background(), res, hwtwbg.X); err != nil {
					tx.Abort()
					continue
				}
				tx.Commit()
			}
		}(g)
	}

	// Tail consumers: repeated bounded sessions racing the writers.
	for g := 0; g < 2; g++ {
		c := dial(t, ln.Addr().String())
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				if _, err := c.TailJournal(TailOptions{FromOldest: true, Max: 100, Heartbeat: 10 * time.Millisecond}); err != nil {
					t.Errorf("TAIL under load: %v", err)
					return
				}
			}
		}()
	}

	// Snapshot consumers: /journal.bin re-reads the same rings.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ctx.Err() == nil {
			resp, err := debug.Client().Get(debug.URL + "/journal.bin")
			if err != nil {
				t.Errorf("/journal.bin under load: %v", err)
				return
			}
			_, err = journal.Decode(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Errorf("/journal.bin under load: %v", err)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	time.Sleep(300 * time.Millisecond)
	cancel()
	wg.Wait()

	if st := lm.Journal().Stats(); st.Emitted == 0 {
		t.Fatal("workload emitted no journal records")
	}
	// The journal survived the concurrency: a final bounded tail still
	// parses end to end.
	var got int
	if _, err := dial(t, ln.Addr().String()).TailJournal(TailOptions{
		FromOldest: true,
		Max:        5,
		Heartbeat:  5 * time.Millisecond,
		OnBatch:    func(b TailBatch) error { got += len(b.Records); return nil },
	}); err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Fatalf("final tail delivered %d records, want 5", got)
	}
}

func TestOpTagJournaledOverWire(t *testing.T) {
	srv, addr := startTailServer(t, 1024)
	c := dial(t, addr)
	c.SetOpTag(424242)
	id, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Lock("tagged", hwtwbg.X); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	c.SetOpTag(0)
	recs := journalBin(t, srv)
	found := false
	for i := range recs {
		if recs[i].Kind == journal.KindOpTag && recs[i].Txn == int64(id) {
			if recs[i].Arg != 424242 {
				t.Fatalf("op-tag record Arg = %d, want 424242", recs[i].Arg)
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("no op-tag record for T%d in %d records", id, len(recs))
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.OpTags == 0 {
		t.Fatal("op_tags stat = 0, want > 0")
	}
	// Setting the same tag twice emits one journal record per change,
	// but the STATS counter counts wire attachments.
	if st.OpTags < 1 {
		t.Fatalf("op_tags = %d", st.OpTags)
	}
}

func TestClientMetrics(t *testing.T) {
	_, addr := startTailServer(t, 1024)
	c := dial(t, addr)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	runTxns(t, c, 2, "m")
	if _, err := c.Stats(); err != nil {
		t.Fatal(err)
	}

	// A TRYLOCK refusal lands in the busy counter, not errors.
	holder := dial(t, addr)
	if _, err := holder.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := holder.Lock("contended", hwtwbg.X); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := c.TryLock("contended", hwtwbg.X); !errors.Is(err, ErrBusy) {
		t.Fatalf("TryLock = %v, want ErrBusy", err)
	}
	if err := c.Abort(); err != nil {
		t.Fatal(err)
	}

	snap := c.Metrics()
	byVerb := map[string]VerbMetrics{}
	for _, v := range snap.Verbs {
		byVerb[v.Verb] = v
	}
	if m := byVerb["BEGIN"]; m.Calls != 3 || m.Errors != 0 {
		t.Fatalf("BEGIN metrics = %+v, want 3 clean calls", m)
	}
	if m := byVerb["LOCK"]; m.Calls != 2 || m.Latency.Count != 2 {
		t.Fatalf("LOCK metrics = %+v, want 2 calls with 2 latency samples", m)
	}
	if m := byVerb["TRYLOCK"]; m.Calls != 1 || m.Busy != 1 || m.Errors != 0 {
		t.Fatalf("TRYLOCK metrics = %+v, want 1 call, 1 busy, 0 errors", m)
	}
	if m := byVerb["PING"]; m.Calls != 1 {
		t.Fatalf("PING metrics = %+v", m)
	}
	if _, ok := byVerb["TAIL"]; ok {
		t.Fatal("TAIL metrics present without any TAIL call")
	}
}
