package lockservice

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http/httptest"
	"strings"
	"testing"

	"hwtwbg"
	"hwtwbg/internal/jview"
	"hwtwbg/journal"
)

// TestDumpJournalRoundTrip drives a real server over the wire: the
// events of one transaction come back out of DUMP as decoded records.
func TestDumpJournalRoundTrip(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	id, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Lock("dump-me", hwtwbg.X); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	recs, err := c.DumpJournal()
	if err != nil {
		t.Fatal(err)
	}
	var sawBegin, sawGrant, sawCommit bool
	for i := range recs {
		r := &recs[i]
		if r.Txn != int64(id) {
			continue
		}
		switch r.Kind {
		case journal.KindBegin:
			sawBegin = true
		case journal.KindGrant:
			if r.Resource() != "dump-me" {
				t.Errorf("grant resource %q, want dump-me", r.Resource())
			}
			if r.RHash != journal.Hash("dump-me") {
				t.Errorf("grant RHash %#x does not match Hash(dump-me)", r.RHash)
			}
			sawGrant = true
		case journal.KindCommit:
			sawCommit = true
		}
	}
	if !sawBegin || !sawGrant || !sawCommit {
		t.Fatalf("dump missing lifecycle for T%d: begin=%v grant=%v commit=%v (of %d records)",
			id, sawBegin, sawGrant, sawCommit, len(recs))
	}
}

// TestDumpJournalDisabled checks the wire error when the server's
// recorder is off.
func TestDumpJournalDisabled(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, hwtwbg.Options{JournalSize: -1})
	t.Cleanup(func() { srv.Close() })
	c := dial(t, ln.Addr().String())
	if _, err := c.DumpJournal(); err == nil || !strings.Contains(err.Error(), "journal disabled") {
		t.Fatalf("DumpJournal error = %v, want journal disabled", err)
	}
	// The session survives the refused command.
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestDumpJournalMalformedReplies exercises the client parser against
// a hostile server.
func TestDumpJournalMalformedReplies(t *testing.T) {
	c := fakeServer(t, "OK notanumber")
	if _, err := c.DumpJournal(); err == nil || !strings.Contains(err.Error(), "malformed") {
		t.Fatalf("err = %v", err)
	}
	c = fakeServer(t, "OK 1\n!!!not-base64!!!")
	if _, err := c.DumpJournal(); err == nil || !strings.Contains(err.Error(), "DUMP record 0") {
		t.Fatalf("err = %v", err)
	}
}

// TestDumpJournalUntrustedCount: the DUMP header's count is the
// server's word. A negative one is malformed, and a count larger than
// the records that follow — however large — costs no more than those
// records and ends in an error when the connection does.
func TestDumpJournalUntrustedCount(t *testing.T) {
	rec := journal.Record{Kind: journal.KindBegin, Txn: 1}
	txt, err := rec.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ reply, want string }{
		{"OK -1", "malformed DUMP header"},
		{"OK 4611686018427387904\n" + string(txt), "DUMP record 1 of 4611686018427387904"},
		{"OK 3\n" + string(txt) + "\n" + string(txt), "DUMP record 2 of 3"},
	} {
		// The server sends its reply and hangs up.
		cs, ss := net.Pipe()
		go func() {
			bufio.NewReader(ss).ReadString('\n')
			fmt.Fprintf(ss, "%s\n", tc.reply)
			ss.Close()
		}()
		c := NewClient(cs)
		recs, err := c.DumpJournal()
		if err == nil || !strings.Contains(err.Error(), tc.want) || recs != nil {
			t.Errorf("%.30q: %d records, err %v; want none and %q", tc.reply, len(recs), err, tc.want)
		}
		c.Close()
	}
}

// journaledDebugManager is debugManager plus a guarantee the resolved
// deadlock can be read back as a postmortem.
func journaledDebugManager(t *testing.T) *hwtwbg.Manager {
	t.Helper()
	lm := debugManager(t)
	if pms, _ := jview.Postmortems(lm.Journal().Snapshot()); len(pms) == 0 {
		t.Fatal("debugManager produced no postmortem")
	}
	return lm
}

// TestDebugHandlerFlightRecorder covers the flight-recorder endpoint
// against a manager with one resolved deadlock. The deadlock's story is
// read from /journal.bin with the functions hwtrace runs offline: the
// detector's one decision, and its postmortem with evidence.
func TestDebugHandlerFlightRecorder(t *testing.T) {
	lm := journaledDebugManager(t)
	srv := httptest.NewServer(DebugHandler(lm))
	defer srv.Close()

	body, ctype := get(t, srv, "/journal.bin")
	if ctype != "application/octet-stream" {
		t.Fatalf("/journal.bin content type %q", ctype)
	}
	recs, err := journal.Decode(strings.NewReader(body))
	if err != nil {
		t.Fatalf("decoding /journal.bin: %v", err)
	}
	res, incomplete := jview.Resolutions(recs)
	if incomplete != 0 || len(res) != 1 {
		t.Fatalf("resolutions = %+v (%d incomplete), want one", res, incomplete)
	}
	if r := res[0]; r.Kind != "victim" || r.Txn == 0 || r.Activation != 1 {
		t.Fatalf("resolution = %+v, want activation 1's victim", r)
	}
	pms, incomplete := jview.Postmortems(recs)
	if incomplete != 0 || len(pms) != 1 {
		t.Fatalf("%d postmortems (%d incomplete), want one on a quiescent, unwrapped journal", len(pms), incomplete)
	}
	if pm := pms[0]; pm.TDR2 || pm.Victim != res[0].Txn || len(pm.Cycle) == 0 || len(pm.Tail) == 0 {
		t.Fatalf("postmortem = %+v, want the victim abort with its cycle and tail", pm)
	}
}

// TestDebugHandlerFlightRecorderDisabled pins the 404 contract when
// the journal is off.
func TestDebugHandlerFlightRecorderDisabled(t *testing.T) {
	lm := hwtwbg.Open(hwtwbg.Options{JournalSize: -1})
	t.Cleanup(func() { lm.Close() })
	tx := lm.Begin()
	if err := tx.Lock(context.Background(), "r", hwtwbg.X); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(DebugHandler(lm))
	defer srv.Close()
	for _, path := range []string{"/journal.bin"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 404 {
			t.Errorf("GET %s with journal disabled: status %d, want 404", path, resp.StatusCode)
		}
	}
	// The rest of the handler still works: the metrics and the cost
	// model do not depend on the journal.
	if body, _ := get(t, srv, "/metrics"); body == "" {
		t.Error("/metrics empty")
	}
	if body, _ := get(t, srv, "/snapshot"); !strings.Contains(body, `"cost_model"`) {
		t.Errorf("/snapshot lacks cost_model: %s", body)
	}
}
