package lockservice

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hwtwbg"
)

// roundTrip sends one raw request line and returns the trimmed reply
// line: the protocol-error tests speak lines no verb method sends.
func (c *Client) roundTrip(req string) (string, error) {
	var resp string
	err := c.call(func(b []byte) []byte { return append(b, req...) }, func(line []byte) error {
		resp = string(line)
		return nil
	})
	return resp, err
}

// parentParseErr and parentBegin are the string reply classification the
// client used before it parsed replies from bytes, kept as the oracle.
func parentParseErr(resp string) error {
	switch {
	case resp == "OK" || strings.HasPrefix(resp, "OK "):
		return nil
	case resp == "ABORTED":
		return ErrAborted
	case resp == "BUSY":
		return ErrBusy
	case strings.HasPrefix(resp, "ERR "):
		return errors.New("lockservice: " + strings.TrimPrefix(resp, "ERR "))
	default:
		return fmt.Errorf("lockservice: malformed reply %q", resp)
	}
}

func parentBegin(resp string) (hwtwbg.TxnID, error) {
	if err := parentParseErr(resp); err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(strings.TrimPrefix(resp, "OK "))
	if err != nil {
		return 0, fmt.Errorf("lockservice: malformed BEGIN reply %q", resp)
	}
	return hwtwbg.TxnID(n), nil
}

// TestClientReplyEquivalence sends every reply shape to every one-line
// verb and checks the outcome against the string classifier: the same
// nil-ness, the same ErrAborted/ErrBusy identity, the same message, and
// BEGIN's id under strconv.Atoi semantics.
func TestClientReplyEquivalence(t *testing.T) {
	replies := []string{
		"OK", "OK 17", "OK x", "OK +17", "OK -3", "OK  17", "OK 99999999999999999999",
		"  OK 17\r", "ABORTED", "BUSY", "\tABORTED ", "ERR something broke", "ERR ",
		"ERR", "PONG", "", "   ", "GARBAGE", "OKAY", "ok",
		"ERR " + strings.Repeat("e", 5<<10), "OK " + strings.Repeat("7", 5<<10),
	}
	verbs := []struct {
		name string
		call func(*Client) (hwtwbg.TxnID, error)
		want func(resp string) (hwtwbg.TxnID, error)
	}{
		{"PING", func(c *Client) (hwtwbg.TxnID, error) { return 0, c.Ping() }, func(resp string) (hwtwbg.TxnID, error) {
			if resp != "PONG" {
				return 0, fmt.Errorf("lockservice: malformed reply %q", resp)
			}
			return 0, nil
		}},
		{"BEGIN", (*Client).Begin, parentBegin},
		{"LOCK", func(c *Client) (hwtwbg.TxnID, error) { return 0, c.Lock("r", hwtwbg.X) }, nil},
		{"TRYLOCK", func(c *Client) (hwtwbg.TxnID, error) { return 0, c.TryLock("r", hwtwbg.S) }, nil},
		{"LOCKALL", func(c *Client) (hwtwbg.TxnID, error) {
			return 0, c.LockAll([]hwtwbg.LockRequest{{Resource: "a", Mode: hwtwbg.S}, {Resource: "b", Mode: hwtwbg.X}})
		}, nil},
		{"COMMIT", func(c *Client) (hwtwbg.TxnID, error) { return 0, c.Commit() }, nil},
		{"ABORT", func(c *Client) (hwtwbg.TxnID, error) { return 0, c.Abort() }, nil},
		{"STATS", func(c *Client) (hwtwbg.TxnID, error) { _, err := c.Stats(); return 0, err }, nil},
	}
	for _, v := range verbs {
		want := v.want
		if want == nil {
			want = func(resp string) (hwtwbg.TxnID, error) { return 0, parentParseErr(resp) }
		}
		for _, reply := range replies {
			wantID, wantErr := want(strings.TrimSpace(reply))
			c := fakeServer(t, reply)
			id, err := v.call(c)
			checkOutcome(t, fmt.Sprintf("%s → %.40q", v.name, reply), id, err, wantID, wantErr)
		}
	}
	// COMMIT and ABORT read two replies, their own and the next BEGIN's.
	// The first decides what they return; the second decides whether the
	// Begin after them returns its id or makes its own round trip, which
	// the third reply answers.
	for _, end := range []struct {
		name string
		call func(*Client) error
	}{{"COMMIT", (*Client).Commit}, {"ABORT", (*Client).Abort}} {
		for _, first := range replies {
			for _, second := range replies {
				label := fmt.Sprintf("%s → %.40q, %.40q", end.name, first, second)
				c := fakeServer(t, first, second, "OK 99")
				checkOutcome(t, label, 0, end.call(c), 0, parentParseErr(strings.TrimSpace(first)))
				wantID, err := parentBegin(strings.TrimSpace(second))
				if err != nil {
					wantID = 99
				}
				id, err := c.Begin()
				checkOutcome(t, label+", then BEGIN", id, err, wantID, nil)
			}
		}
	}
}

// checkOutcome compares a verb's outcome with the string classifier's:
// the same nil-ness, the same message, the same ErrAborted/ErrBusy
// identity and the same id.
func checkOutcome(t *testing.T, label string, id hwtwbg.TxnID, err error, wantID hwtwbg.TxnID, wantErr error) {
	t.Helper()
	switch {
	case (err == nil) != (wantErr == nil):
		t.Errorf("%s: err = %v, want %v", label, err, wantErr)
	case err != nil && err.Error() != wantErr.Error():
		t.Errorf("%s: err = %q, want %q", label, err, wantErr)
	case errors.Is(err, ErrAborted) != errors.Is(wantErr, ErrAborted),
		errors.Is(err, ErrBusy) != errors.Is(wantErr, ErrBusy):
		t.Errorf("%s: err = %v, want %v (sentinel identity)", label, err, wantErr)
	case id != wantID:
		t.Errorf("%s: id = %d, want %d", label, id, wantID)
	}
}

// writeLog records every Write the client makes, one entry per call.
type writeLog struct {
	net.Conn
	mu     sync.Mutex
	writes []string
}

func (w *writeLog) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.writes = append(w.writes, string(p))
	w.mu.Unlock()
	return w.Conn.Write(p)
}

func (w *writeLog) take() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := w.writes
	w.writes = nil
	return out
}

// TestClientRequestGolden pins the bytes of every request, with and
// without a sticky tag, and that each verb makes exactly one Write —
// COMMIT and ABORT carrying the next BEGIN, which the Begin after them
// does not send again — or none: hwbench counts requests and bytes per
// transaction at the connection.
func TestClientRequestGolden(t *testing.T) {
	cs, ss := net.Pipe()
	go func() {
		r := bufio.NewReader(ss)
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				ss.Close()
				return
			}
			// OK 1 satisfies every verb's reply; the journal-less answer
			// ends DUMP and TAIL after their header.
			reply := "OK 1"
			switch strings.Fields(line)[0] {
			case "PING":
				reply = "PONG"
			case "SNAPSHOT":
				reply = "OK 0"
			case "DUMP", "TAIL":
				reply = "ERR journal disabled"
			}
			fmt.Fprintf(ss, "%s\n", reply)
		}
	}()
	wl := &writeLog{Conn: cs}
	c := NewClient(wl)
	defer c.Close()
	reqs := []hwtwbg.LockRequest{{Resource: "a/1", Mode: hwtwbg.IS}, {Resource: "b", Mode: hwtwbg.SIX}, {Resource: "c", Mode: hwtwbg.NL}}
	begin := func() error { _, err := c.Begin(); return err }
	verbs := []struct {
		call func() error
		want string // {tag} stands for the ` tag=<n>` field; "" means no write
	}{
		{c.Ping, "PING\n"},
		{begin, "BEGIN{tag}\n"},
		{func() error { return c.Lock("acct/7", hwtwbg.X) }, "LOCK acct/7 X{tag}\n"},
		{func() error { return c.Lock("r", hwtwbg.Mode(9)) }, "LOCK r Mode(9){tag}\n"},
		{func() error { return c.TryLock("acct/7", hwtwbg.S) }, "TRYLOCK acct/7 S{tag}\n"},
		{func() error { return c.LockAll(reqs) }, "LOCKALL a/1 IS b SIX c NL{tag}\n"},
		{c.Commit, "COMMIT\nBEGIN{tag}\n"},
		{begin, ""},
		{c.Abort, "ABORT\nBEGIN{tag}\n"},
		{begin, ""},
		{func() error { _, err := c.Stats(); return err }, "STATS\n"},
		{func() error { _, err := c.Snapshot(); return err }, "SNAPSHOT\n"},
		{func() error { c.DumpJournal(); return nil }, "DUMP\n"},
		{func() error { c.TailJournal(TailOptions{}); return nil }, "TAIL from=now\n"},
		{func() error {
			c.TailJournal(TailOptions{FromOldest: true, Max: 5, Heartbeat: 250 * time.Millisecond})
			return nil
		}, "TAIL from=oldest max=5 hb=250ms\n"},
		{func() error { c.TailJournal(TailOptions{Cursor: TailCursor{1, 2}}); return nil }, "TAIL cursor=1,2\n"},
	}
	check := func(tag uint64, call func() error, want string) {
		t.Helper()
		field := ""
		if tag != 0 {
			field = fmt.Sprintf(" tag=%d", tag)
		}
		want = strings.ReplaceAll(want, "{tag}", field)
		if err := call(); err != nil {
			t.Fatalf("%q: %v", want, err)
		}
		got := wl.take()
		switch {
		case want == "" && len(got) != 0:
			t.Errorf("tag %d: writes %q, want none", tag, got)
		case want != "" && (len(got) != 1 || got[0] != want):
			t.Errorf("tag %d: writes %q, want exactly [%q]", tag, got, want)
		}
	}
	for _, tag := range []uint64{0, 42, 1<<64 - 1} {
		c.SetOpTag(tag)
		for _, v := range verbs {
			check(tag, v.call, v.want)
		}
	}
	// A Begin after the tag changed replaces the transaction begun with
	// the old one, in one write.
	c.SetOpTag(7)
	check(7, c.Commit, "COMMIT\nBEGIN{tag}\n")
	c.SetOpTag(0)
	check(0, begin, "ABORT\nBEGIN\n")
	check(0, c.Commit, "COMMIT\nBEGIN\n")
	c.SetOpTag(7)
	check(7, begin, "ABORT\nBEGIN{tag}\n")
	c.SetOpTag(0)
	c.Close()
	if got := wl.take(); len(got) != 1 || got[0] != "QUIT\n" {
		t.Errorf("Close wrote %q, want [\"QUIT\\n\"]", got)
	}
}
