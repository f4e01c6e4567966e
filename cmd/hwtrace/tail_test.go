package main

import (
	"bytes"
	"encoding/json"
	"net"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"hwtwbg"
	"hwtwbg/journal"
	"hwtwbg/lockservice"
)

// tailServer starts a live lock server and runs a few transactions
// through it so a tail from oldest has records to deliver.
func tailServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := lockservice.Serve(ln, hwtwbg.Options{Shards: 1})
	t.Cleanup(func() { srv.Close() })
	c, err := lockservice.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetOpTag(7)
	// One contended handoff first, so a bounded tail from oldest sees a
	// waited grant early and the summary's top-contended section has
	// something to rank.
	c2, err := lockservice.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c2.Close() })
	if _, err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := c.Lock("tail-res", hwtwbg.X); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		if _, err := c2.Begin(); err != nil {
			done <- err
			return
		}
		if err := c2.Lock("tail-res", hwtwbg.X); err != nil {
			done <- err
			return
		}
		done <- c2.Commit()
	}()
	time.Sleep(20 * time.Millisecond)
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := c.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := c.Lock("tail-res", hwtwbg.X); err != nil {
			t.Fatal(err)
		}
		if err := c.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	return ln.Addr().String()
}

// TestTailRawRecordGolden pins one `tail -raw` record line. The record
// has every field set, so every omitempty key shows, and it travels the
// way a tailed record does: the server's text form, the client's parse,
// then the raw consumer's rendering.
func TestTailRawRecordGolden(t *testing.T) {
	rec := journal.Record{
		TS: 1700000000123456789, Txn: 42, Arg: 3, Kind: journal.KindGrant,
		Mode: uint8(hwtwbg.SIX), Shard: 2, Aux: 5,
		Flags: journal.FlagConversion | journal.FlagTry,
	}
	rec.SetResource("accounts/7")
	txt, err := rec.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	var got journal.Record
	if err := got.UnmarshalText(txt); err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(newRawRecord(&got))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "tail_record.golden", string(line)+"\n")
}

// TestTailRawNDJSON runs the real subcommand against a live server:
// `hwtrace tail -raw -count 8 -from oldest` must exit 0 and emit one
// well-formed NDJSON object per line. A record line's keys are those of
// the tail_record.golden line, in its order, less the omitted empty
// ones.
func TestTailRawNDJSON(t *testing.T) {
	golden, err := os.ReadFile("testdata/tail_record.golden")
	if err != nil {
		t.Fatal(err)
	}
	vocab := jsonKeys(t, golden)
	addr := tailServer(t)
	var out, errb bytes.Buffer
	code := run([]string{"tail", "-raw", "-count", "8", "-from", "oldest", "-interval", "50ms", addr}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb.String())
	}
	var records int
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("non-JSON line %q: %v", line, err)
		}
		typ, _ := obj["type"].(string)
		switch typ {
		case "record":
			records++
			rest := vocab
			for _, k := range jsonKeys(t, []byte(line)) {
				i := slices.Index(rest, k)
				if i < 0 {
					t.Fatalf("record line key %q is not in tail_record.golden's %q, or out of order: %s", k, vocab, line)
				}
				rest = rest[i+1:]
			}
		case "heartbeat", "lag":
		default:
			t.Fatalf("line with unknown type %q: %s", typ, line)
		}
	}
	if records != 8 {
		t.Fatalf("emitted %d record lines, want 8", records)
	}
}

// TestTailRawHeartbeatKeys: a `tail -raw` heartbeat line is
// {"type":"heartbeat",...TailHeartbeat}, so its keys are "type" and
// then, in order, the keys of lockservice's TailHeartbeat JSON golden.
func TestTailRawHeartbeatKeys(t *testing.T) {
	golden, err := os.ReadFile("../../lockservice/testdata/tail_heartbeat.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := append([]string{"type"}, jsonKeys(t, golden)...)

	addr := tailServer(t)
	// A tail from now with a 1ms heartbeat emits heartbeats while idle,
	// and ends once the background transactions supply one record.
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		c, err := lockservice.Dial(addr)
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		for {
			select {
			case <-done:
				return
			case <-time.After(20 * time.Millisecond):
			}
			if _, err := c.Begin(); err != nil {
				t.Error(err)
				return
			}
			if err := c.Lock("hb-res", hwtwbg.X); err != nil {
				t.Error(err)
				return
			}
			if err := c.Commit(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var out, errb bytes.Buffer
	code := run([]string{"tail", "-raw", "-count", "1", "-from", "now", "-interval", "1ms", addr}, &out, &errb)
	close(done)
	<-exited
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb.String())
	}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		if !strings.HasPrefix(line, `{"type":"heartbeat"`) {
			continue
		}
		if got := jsonKeys(t, []byte(line)); !slices.Equal(got, want) {
			t.Fatalf("heartbeat keys %q, want %q", got, want)
		}
		return
	}
	t.Fatalf("no heartbeat line in:\n%s", out.String())
}

// jsonKeys returns the top-level keys of one JSON object, in order.
func jsonKeys(t *testing.T, data []byte) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, err := dec.Token(); tok != json.Delim('{') {
		t.Fatalf("%s: not a JSON object (%v)", data, err)
	}
	var keys []string
	for dec.More() {
		k, err := dec.Token()
		if err != nil {
			t.Fatalf("%s: %v", data, err)
		}
		keys = append(keys, k.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// TestTailSummary checks the human rendering: a bounded tail with a
// fast heartbeat prints at least one summary frame with the headline
// counters.
func TestTailSummary(t *testing.T) {
	addr := tailServer(t)
	var out, errb bytes.Buffer
	code := run([]string{"tail", "-count", "8", "-from", "oldest", "-interval", "20ms", addr}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb.String())
	}
	s := out.String()
	for _, want := range []string{"recs=", "grants=", "detector", "top contended:", "tail-res"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary output missing %q:\n%s", want, s)
		}
	}
}

// TestTailUsageErrors pins exit 2 for malformed invocations.
func TestTailUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"tail"},                                // no address
		{"tail", "-from", "sideways", "x:1"},    // bad -from
		{"tail", "a:1", "b:2"},                  // two addresses
		{"tail", "-count", "nope", "localhost"}, // bad flag value
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Fatalf("run(%q) = %d, want 2", args, code)
		}
		if !strings.Contains(errb.String(), "usage:") {
			t.Fatalf("run(%q) stderr lacks usage:\n%s", args, errb.String())
		}
	}
}

// TestTailConnectError: an unreachable server is an analysis error
// (exit 1), not a usage error.
func TestTailConnectError(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"tail", "-count", "1", "127.0.0.1:1"}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
}
