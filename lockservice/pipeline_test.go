package lockservice

import (
	"bufio"
	"io"
	"net"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hwtwbg"
	"hwtwbg/internal/jview"
	"hwtwbg/journal"
)

// The pipelining rules of the package comment, one test each, plus the
// client's use of them: COMMIT and ABORT carry the next BEGIN.

// writeCounter counts the writes a server makes to its connections.
type writeCounter struct {
	net.Listener
	writes atomic.Int64
}

func (l *writeCounter) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countedConn{Conn: c, writes: &l.writes}, nil
}

type countedConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c *countedConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// replyLines reads conn's reply lines, trimmed, into a channel that is
// closed when the connection ends.
func replyLines(conn net.Conn) <-chan string {
	out := make(chan string, 64)
	go func() {
		defer close(out)
		r := bufio.NewReader(conn)
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				return
			}
			out <- strings.TrimSpace(line)
		}
	}()
	return out
}

// expectReplies takes len(want) replies from lines and matches each
// against its pattern ("OK #" stands for OK and a transaction id).
func expectReplies(t *testing.T, lines <-chan string, want ...string) {
	t.Helper()
	for i, w := range want {
		re := regexp.MustCompile("^" + strings.ReplaceAll(regexp.QuoteMeta(w), "#", `[0-9]+`) + "$")
		select {
		case got, ok := <-lines:
			if !ok {
				t.Fatalf("reply %d: connection closed, want %q", i, w)
			}
			if !re.MatchString(got) {
				t.Fatalf("reply %d: %q, want %q", i, got, w)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("reply %d: none within 5s, want %q", i, w)
		}
	}
}

// expectNoReply asserts that no reply arrives for a while.
func expectNoReply(t *testing.T, lines <-chan string) {
	t.Helper()
	select {
	case got := <-lines:
		t.Fatalf("got %q while the request before it should still wait", got)
	case <-time.After(30 * time.Millisecond):
	}
}

// Rule 1: replies leave in request order, one per request line, and a
// batch that needs no wait costs the server one write; a client that
// waits for each reply gets each in a write of its own.
func TestPipelineRepliesInOrder(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wc := &writeCounter{Listener: ln}
	srv := Serve(wc, hwtwbg.Options{})
	defer srv.Close()

	conn, _ := rawConn(t, ln.Addr().String())
	lines := replyLines(conn)
	// The LOCK and the LOCKALL each flush the replies before them; the
	// rest of the batch is answered in one more write.
	io.WriteString(conn, "PING\nBEGIN\n\nLOCK a X\nTRYLOCK b S\nLOCKALL c S d X\nFROB\nCOMMIT\nCOMMIT\nBEGIN\nABORT\nPING\n")
	expectReplies(t, lines, "PONG", "OK #", "OK", "OK", "OK", "ERR unknown command FROB",
		"OK", "ERR no transaction", "OK #", "OK", "PONG")
	if n := wc.writes.Load(); n != 3 {
		t.Errorf("server made %d writes for the batch, want 3", n)
	}
	// Nor does a partial line behind a request hold its reply back.
	io.WriteString(conn, "PING\nPI")
	expectReplies(t, lines, "PONG")
	io.WriteString(conn, "NG\n")
	expectReplies(t, lines, "PONG")

	wc.writes.Store(0)
	c := dial(t, ln.Addr().String())
	for i := 0; i < 3; i++ {
		if err := c.Ping(); err != nil {
			t.Fatal(err)
		}
	}
	if n := wc.writes.Load(); n != 3 {
		t.Errorf("server made %d writes for 3 PINGs sent one at a time, want 3", n)
	}
}

// Rule 2: a LOCK or LOCKALL that blocks stalls only the replies behind
// it — the BEGIN sent with it is answered while it waits.
func TestPipelineBlockedLockStallsOnlyLaterReplies(t *testing.T) {
	_, addr := startServer(t)
	for _, lock := range []string{"LOCK r X", "LOCKALL s S r X"} {
		t.Run(strings.Fields(lock)[0], func(t *testing.T) {
			holder := dial(t, addr)
			if _, err := holder.Begin(); err != nil {
				t.Fatal(err)
			}
			if err := holder.Lock("r", hwtwbg.X); err != nil {
				t.Fatal(err)
			}
			conn, _ := rawConn(t, addr)
			lines := replyLines(conn)
			io.WriteString(conn, "BEGIN\n"+lock+"\nPING\nCOMMIT\n")
			expectReplies(t, lines, "OK #")
			expectNoReply(t, lines)
			if err := holder.Commit(); err != nil {
				t.Fatal(err)
			}
			expectReplies(t, lines, "OK", "PONG", "OK")
		})
	}
}

// Rule 3: after ABORTED, every later line already sent gets its one
// defined reply. Two sessions pipeline the requests that close a
// deadlock together with what follows them; the victim's lines answer
// ABORTED up to and including its COMMIT, the survivor's succeed.
func TestPipelineAfterAborted(t *testing.T) {
	_, addr := startServer(t)
	type side struct {
		lines <-chan string
		conn  net.Conn
	}
	var sides [2]side
	for i, own := range []string{"x", "y"} {
		conn, _ := rawConn(t, addr)
		sides[i] = side{replyLines(conn), conn}
		io.WriteString(conn, "BEGIN\nLOCK "+own+" X\n")
		expectReplies(t, sides[i].lines, "OK #", "OK")
	}
	for i, other := range []string{"y", "x"} {
		z := []string{"za", "zb"}[i]
		io.WriteString(sides[i].conn, "LOCK "+other+" X\nLOCK "+z+"1 X\nTRYLOCK "+z+"2 S\nLOCKALL "+z+"3 S "+z+"4 X\n"+
			"COMMIT\nLOCK "+z+"5 X\nBEGIN\nABORT\n")
	}
	// The detector picks the victim; the survivor's LOCK is granted when
	// the victim's abort releases its lock.
	var first [2]string
	for i := range sides {
		select {
		case first[i] = <-sides[i].lines:
		case <-time.After(5 * time.Second):
			t.Fatalf("session %d: no reply to its deadlocked LOCK", i)
		}
	}
	if (first[0] == "ABORTED") == (first[1] == "ABORTED") {
		t.Fatalf("first replies %q, want exactly one ABORTED", first)
	}
	for i := range sides {
		if first[i] == "ABORTED" {
			expectReplies(t, sides[i].lines, "ABORTED", "ABORTED", "ABORTED", "ABORTED",
				"ERR no transaction; BEGIN first", "OK #", "OK")
		} else {
			expectReplies(t, sides[i].lines, "OK", "OK", "OK", "OK",
				"ERR no transaction; BEGIN first", "OK #", "OK")
		}
	}
}

// The client's side: Commit and Abort begin the next transaction, which
// Begin then hands out without a round trip; until it does, the
// transaction verbs fail as the server fails them for a session without
// a transaction, and nothing reaches the lock table.
func TestClientPreBegunGuard(t *testing.T) {
	srv, addr := startServer(t)
	c := dial(t, addr)
	calls := []struct {
		name string
		call func() error
	}{
		{"Lock", func() error { return c.Lock("r", hwtwbg.X) }},
		{"TryLock", func() error { return c.TryLock("r", hwtwbg.X) }},
		{"LockAll", func() error {
			return c.LockAll([]hwtwbg.LockRequest{{Resource: "r", Mode: hwtwbg.X}, {Resource: "s", Mode: hwtwbg.S}})
		}},
		{"Commit", c.Commit}, // last: it begins a transaction on the server
	}
	// The server's answers, from a session that never began one.
	server := make([]string, len(calls))
	for i, v := range calls {
		err := v.call()
		if err == nil {
			t.Fatalf("%s without a transaction succeeded", v.name)
		}
		server[i] = err.Error()
	}
	// Now the server holds a transaction the caller has not been given.
	for round := 0; round < 2; round++ {
		for i, v := range calls {
			if err := v.call(); err == nil || err.Error() != server[i] {
				t.Fatalf("%s before Begin: %v, want %q", v.name, err, server[i])
			}
		}
		if snap := srv.Manager().Snapshot(); snap != "" {
			t.Fatalf("lock table after refused requests:\n%s", snap)
		}
		if err := c.Abort(); err != nil {
			t.Fatalf("Abort before Begin: %v", err)
		}
	}
	id, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Lock("r", hwtwbg.X); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	next, err := c.Begin()
	if err != nil || next <= id {
		t.Fatalf("Begin after Commit = %d, %v; want an id after %d", next, err, id)
	}
	if err := c.Abort(); err != nil {
		t.Fatal(err)
	}
}

// A transaction begun behind a COMMIT or ABORT and never used — the one
// a client holds when it closes, or one replaced because the op tag
// changed — journals nothing, so Analyze sees no ring loss.
func TestPreBegunTxnLeavesNoOrphans(t *testing.T) {
	srv, addr := startServer(t)
	c := dial(t, addr)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	begin := func() {
		t.Helper()
		_, err := c.Begin()
		must(err)
	}
	begin()
	must(c.Lock("a", hwtwbg.X))
	must(c.Commit())
	begin() // lock-free commit
	must(c.Commit())
	begin() // lock-free abort
	must(c.Abort())
	c.SetOpTag(5)
	begin() // replaces the transaction begun without a tag
	must(c.Lock("b", hwtwbg.S))
	must(c.Abort())
	c.SetOpTag(0)
	begin() // replaces the one begun with tag 5
	must(c.Commit())
	c.Close()
	srv.Close() // waits for the session's end, which aborts the pre-begun transaction
	recs := srv.Manager().Journal().Snapshot()
	if rep := jview.Analyze(recs); rep.Orphans != 0 || rep.Txns != 2 {
		t.Fatalf("Analyze: orphans %d, txns %d; want 0 and 2", rep.Orphans, rep.Txns)
	}
	ends := map[journal.Kind]int{}
	for _, r := range recs {
		ends[r.Kind]++
	}
	if ends[journal.KindBegin] != 2 || ends[journal.KindCommit] != 1 || ends[journal.KindAbort] != 1 {
		t.Fatalf("begin/commit/abort records %d/%d/%d, want 2/1/1",
			ends[journal.KindBegin], ends[journal.KindCommit], ends[journal.KindAbort])
	}
}
