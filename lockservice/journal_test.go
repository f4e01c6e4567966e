package lockservice

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http/httptest"
	"strings"
	"testing"

	"hwtwbg"
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
	if pms, _ := journal.Postmortems(lm.Journal().Snapshot()); len(pms) == 0 {
		t.Fatal("debugManager produced no postmortem")
	}
	return lm
}

// TestDebugHandlerFlightRecorder covers the three flight-recorder
// endpoints against a manager with one resolved deadlock.
func TestDebugHandlerFlightRecorder(t *testing.T) {
	lm := journaledDebugManager(t)
	srv := httptest.NewServer(DebugHandler(lm))
	defer srv.Close()

	// /postmortems: the resolved cycle with evidence.
	body, ctype := get(t, srv, "/postmortems")
	if !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("/postmortems content type %q", ctype)
	}
	var pm struct {
		Total       int  `json:"total"`
		Incomplete  *int `json:"incomplete"`
		Postmortems []struct {
			Victim int  `json:"victim"`
			TDR2   bool `json:"tdr2"`
			Cycle  []struct {
				From     int    `json:"from"`
				To       int    `json:"to"`
				Resource string `json:"resource"`
			} `json:"cycle"`
			Tail []json.RawMessage `json:"tail"`
		} `json:"postmortems"`
	}
	if err := json.Unmarshal([]byte(body), &pm); err != nil {
		t.Fatalf("/postmortems JSON: %v\n%s", err, body)
	}
	if pm.Total < 1 || len(pm.Postmortems) < 1 {
		t.Fatalf("/postmortems empty: %s", body)
	}
	if pm.Incomplete == nil || *pm.Incomplete != 0 {
		t.Fatalf("/postmortems incomplete = %v, want 0 on a quiescent, unwrapped journal: %s", pm.Incomplete, body)
	}
	first := pm.Postmortems[0]
	if first.TDR2 || first.Victim == 0 {
		t.Fatalf("postmortem = %+v, want a victim abort", first)
	}
	if len(first.Cycle) == 0 || len(first.Tail) == 0 {
		t.Fatalf("postmortem missing cycle or tail: %s", body)
	}

	// /trace.json: Chrome trace-event schema (see journal.BuildTrace).
	body, ctype = get(t, srv, "/trace.json")
	if !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("/trace.json content type %q", ctype)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &trace); err != nil {
		t.Fatalf("/trace.json JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("/trace.json has no events")
	}
	for i, ev := range trace.TraceEvents {
		if ev.Ph == "" || ev.Name == "" {
			t.Fatalf("trace event %d missing ph or name: %+v", i, ev)
		}
	}

	// /journal.bin: binary dump, decodable by the journal package (and
	// therefore by cmd/hwtrace).
	body, _ = get(t, srv, "/journal.bin")
	recs, err := journal.Decode(bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("decoding /journal.bin: %v", err)
	}
	if len(recs) == 0 {
		t.Fatal("/journal.bin decoded to zero records")
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
	for _, path := range []string{"/history", "/postmortems", "/trace.json", "/journal.bin", "/nearmiss"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 404 {
			t.Errorf("GET %s with journal disabled: status %d, want 404", path, resp.StatusCode)
		}
	}
	// The rest of the handler still works — /costmodel does not depend
	// on the journal.
	if body, _ := get(t, srv, "/metrics"); body == "" {
		t.Error("/metrics empty")
	}
	if body, _ := get(t, srv, "/costmodel"); body == "" {
		t.Error("/costmodel empty")
	}
}
