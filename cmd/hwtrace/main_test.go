package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"hwtwbg"
	"hwtwbg/internal/jview"
	"hwtwbg/journal"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files from the current output")

// checkGolden compares got with testdata/<name>, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output drifted from %s (rerun with -update if intended):\n%s", path, got)
	}
}

// dumpFile runs a small workload with one resolved deadlock, encodes
// the manager's journal in the binary dump format, and writes it where
// load() will pick it up — the same bytes the debug server's
// /journal.bin serves.
func dumpFile(t *testing.T) string {
	t.Helper()
	lm := hwtwbg.Open(hwtwbg.Options{Shards: 1})
	defer lm.Close()
	ctx := context.Background()
	a, b := lm.Begin(), lm.Begin()
	if err := a.Lock(ctx, "u", hwtwbg.X); err != nil {
		t.Fatal(err)
	}
	if err := b.Lock(ctx, "v", hwtwbg.X); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	go func() { errs <- a.Lock(ctx, "v", hwtwbg.X) }()
	go func() { errs <- b.Lock(ctx, "u", hwtwbg.X) }()
	for !lm.Blocked(a.ID()) || !lm.Blocked(b.ID()) {
		runtime.Gosched()
	}
	if st := lm.Detect(); st.Aborted != 1 {
		t.Fatalf("aborted %d, want 1", st.Aborted)
	}
	<-errs
	<-errs

	var buf bytes.Buffer
	if err := journal.Encode(&buf, lm.Journal().Snapshot()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "journal.bin")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestPerfettoRoundTrip pins the tool's core promise: a binary dump
// round-trips through `hwtrace perfetto` into JSON matching the Chrome
// trace-event schema (object format: traceEvents array whose entries
// carry name/ph/pid/ts, "X" spans carry dur, "M" metadata names the
// tracks).
func TestPerfettoRoundTrip(t *testing.T) {
	recs, err := load(dumpFile(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("dump decoded to zero records")
	}
	var out bytes.Buffer
	if code, err := execute("perfetto", false, nil, recs, &out); err != nil || code != 0 {
		t.Fatalf("perfetto: code %d, err %v", code, err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		DisplayUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("perfetto output is not JSON: %v", err)
	}
	if doc.DisplayUnit == "" {
		t.Error("displayTimeUnit missing")
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	phases := map[string]int{}
	for i, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		name, _ := ev["name"].(string)
		if ph == "" || name == "" {
			t.Fatalf("event %d missing ph or name: %v", i, ev)
		}
		if _, ok := ev["pid"].(float64); !ok {
			t.Fatalf("event %d missing pid: %v", i, ev)
		}
		if ph != "M" {
			if _, ok := ev["ts"].(float64); !ok {
				t.Fatalf("event %d missing ts: %v", i, ev)
			}
		}
		if ph == "X" {
			if _, ok := ev["dur"].(float64); !ok {
				t.Fatalf("complete event %d missing dur: %v", i, ev)
			}
		}
		phases[ph]++
	}
	// The workload guarantees: track metadata, lifecycle instants, a
	// detector activation span and at least one blocked-wait span.
	if phases["M"] < 3 {
		t.Errorf("only %d metadata events; tracks unnamed", phases["M"])
	}
	if phases["i"] == 0 {
		t.Error("no instant events (begins/commits/victims)")
	}
	if phases["X"] == 0 {
		t.Error("no complete-span events (waits/activations)")
	}
}

// TestReportAndCat smoke-checks the other subcommands over the same
// dump, including the JSON report's schema.
func TestReportAndCat(t *testing.T) {
	recs, err := load(dumpFile(t))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code, err := execute("report", true, nil, recs, &out); err != nil || code != 0 {
		t.Fatalf("report -json: code %d, err %v", code, err)
	}
	var rep jview.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report -json output: %v", err)
	}
	if rep.Records != len(recs) || rep.Deadlocks != 1 || rep.Victims != 1 {
		t.Fatalf("report = records %d deadlocks %d victims %d, want %d/1/1",
			rep.Records, rep.Deadlocks, rep.Victims, len(recs))
	}
	if rep.Txns != 2 {
		t.Fatalf("report txns = %d, want 2", rep.Txns)
	}
	if len(rep.Resources) == 0 {
		t.Fatal("report has no contention ranking")
	}
	// The victim waited before its abort, so the wait population exists.
	if ls, ok := rep.Latencies[jview.LatencyWait]; !ok || ls.Count == 0 {
		t.Fatalf("report has no wait latency population: %+v", rep.Latencies)
	}

	out.Reset()
	if code, err := execute("report", false, nil, recs, &out); err != nil || code != 0 {
		t.Fatalf("report: code %d, err %v", code, err)
	}
	if !strings.Contains(out.String(), "cycles resolved") {
		t.Fatalf("text report missing detector summary:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "latency percentiles") {
		t.Fatalf("text report missing latency percentiles:\n%s", out.String())
	}

	out.Reset()
	if code, err := execute("cat", false, nil, recs, &out); err != nil || code != 0 {
		t.Fatalf("cat: code %d, err %v", code, err)
	}
	if lines := strings.Count(out.String(), "\n"); lines != len(recs) {
		t.Fatalf("cat printed %d lines for %d records", lines, len(recs))
	}
}

// TestSLOGate pins the -slo exit-status contract: a generous objective
// passes (exit 0), an impossible one fails (exit 1), and the JSON
// document carries the evaluated objectives alongside the report.
func TestSLOGate(t *testing.T) {
	path := dumpFile(t)

	var out, errOut bytes.Buffer
	if code := run([]string{"report", "-slo", "p99=10m", path}, &out, &errOut); code != 0 {
		t.Fatalf("generous SLO: exit %d, stderr %q", code, errOut.String())
	}
	if !strings.Contains(out.String(), "PASS") {
		t.Fatalf("generous SLO output missing PASS:\n%s", out.String())
	}

	out.Reset()
	errOut.Reset()
	if code := run([]string{"report", "-slo", "p50=1ns", path}, &out, &errOut); code != 1 {
		t.Fatalf("impossible SLO: exit %d, want 1", code)
	}
	if !strings.Contains(out.String(), "FAIL") {
		t.Fatalf("impossible SLO output missing FAIL:\n%s", out.String())
	}

	// JSON mode: the slos array rides alongside the embedded report.
	out.Reset()
	errOut.Reset()
	if code := run([]string{"report", "-json", "-slo", "p99=10m,commit:p95=10m", path}, &out, &errOut); code != 0 {
		t.Fatalf("json SLO: exit %d, stderr %q", code, errOut.String())
	}
	var doc struct {
		jview.Report
		SLOs []jview.SLOResult `json:"slos"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("json SLO output: %v", err)
	}
	if len(doc.SLOs) != 2 {
		t.Fatalf("json SLO results = %d, want 2", len(doc.SLOs))
	}
	for _, r := range doc.SLOs {
		if !r.OK {
			t.Fatalf("generous objective failed: %+v", r)
		}
	}
	if doc.SLOs[0].Kind != jview.LatencyWait || doc.SLOs[0].Bound != 10*time.Minute {
		t.Fatalf("first SLO = %+v, want wait p99 <= 10m", doc.SLOs[0])
	}
}

// TestNearMissSubcommand smoke-checks the standalone predictive pass.
func TestNearMissSubcommand(t *testing.T) {
	path := dumpFile(t)
	var out, errOut bytes.Buffer
	if code := run([]string{"nearmiss", "-json", path}, &out, &errOut); code != 0 {
		t.Fatalf("nearmiss: exit %d, stderr %q", code, errOut.String())
	}
	var rep jview.NearMissReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("nearmiss -json output: %v", err)
	}
}

// TestUsageErrors pins the CLI contract: usage mistakes exit 2 with the
// usage text on stderr and nothing on stdout.
func TestUsageErrors(t *testing.T) {
	path := dumpFile(t)
	cases := []struct {
		name string
		args []string
		code int
	}{
		{"no args", nil, 2},
		{"unknown subcommand", []string{"frobnicate", path}, 2},
		{"bad flag", []string{"report", "-bogus", path}, 2},
		{"missing dump", []string{"report"}, 2},
		{"extra args", []string{"cat", path, path}, 2},
		{"bad slo spec", []string{"report", "-slo", "p42=1ms", path}, 2},
		{"bad slo bound", []string{"report", "-slo", "p99=banana", path}, 2},
		{"flag on cat", []string{"cat", "-json", path}, 2},
		{"slo on postmortems", []string{"postmortems", "-slo", "p99=1ms", path}, 2},
		{"unreadable dump", []string{"report", filepath.Join(t.TempDir(), "nope.bin")}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			if code := run(tc.args, &out, &errOut); code != tc.code {
				t.Fatalf("run(%q) = %d, want %d (stderr: %q)", tc.args, code, tc.code, errOut.String())
			}
			if out.Len() != 0 {
				t.Fatalf("run(%q) wrote to stdout: %q", tc.args, out.String())
			}
			if tc.code == 2 && !strings.Contains(errOut.String(), "usage:") {
				t.Fatalf("run(%q) stderr missing usage text: %q", tc.args, errOut.String())
			}
			if errOut.Len() == 0 {
				t.Fatalf("run(%q) silent on stderr", tc.args)
			}
		})
	}
}

// TestHostileDump: testdata/bad_mode.bin is the dump magic and two
// grants of T7 on r1, the second with mode byte 48. Decode refuses it,
// naming the record, instead of handing the views a mode that indexes
// past the mode tables.
func TestHostileDump(t *testing.T) {
	dump := filepath.Join("testdata", "bad_mode.bin")
	for _, cmd := range []string{"report", "nearmiss"} {
		var out, errOut bytes.Buffer
		code := run([]string{cmd, dump}, &out, &errOut)
		if want := "hwtrace: journal: dump record 1: mode 48 is not a lock mode\n"; code != 1 || out.Len() != 0 || errOut.String() != want {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want 1, nothing, %q", cmd, code, out.String(), errOut.String(), want)
		}
	}
}

// TestFixtureSchema replays the checked-in deterministic dump (made by
// testdata/genjournal) through every dump subcommand and pins each
// output whole as a golden (`report -json` as testdata/report.golden):
// a stable fixture means the output, and the keys CI greps from it,
// only change when the analysis intentionally does. `cat` and the
// postmortems text print clock times, so the zone is fixed to UTC.
func TestFixtureSchema(t *testing.T) {
	defer func(loc *time.Location) { time.Local = loc }(time.Local)
	time.Local = time.UTC
	fixture := filepath.Join("testdata", "journal_fixture.bin")
	if _, err := os.Stat(fixture); err != nil {
		t.Fatalf("fixture missing (regenerate with go run ./cmd/hwtrace/testdata/genjournal): %v", err)
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"report", "-json", fixture}, &out, &errOut); code != 0 {
		t.Fatalf("report -json over fixture: exit %d, stderr %q", code, errOut.String())
	}
	checkGolden(t, "report.golden", out.String())
	var rep jview.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("fixture report: %v", err)
	}
	if rep.Records == 0 || rep.Txns == 0 {
		t.Fatalf("fixture report empty: %+v", rep)
	}
	if rep.Deadlocks != 1 || rep.Victims != 1 {
		t.Fatalf("fixture deadlocks/victims = %d/%d, want 1/1", rep.Deadlocks, rep.Victims)
	}
	if len(rep.NearMisses.Reversals) == 0 {
		t.Fatal("fixture yields no near-miss reversals; the AB/BA workload should")
	}
	if ls, ok := rep.Latencies[jview.LatencyCommit]; !ok || ls.Count == 0 {
		t.Fatal("fixture yields no commit latency population")
	}

	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"report_text.golden", []string{"report"}},
		{"report_slo.golden", []string{"report", "-slo", "p99=10m"}},
		{"nearmiss.golden", []string{"nearmiss"}},
		{"nearmiss_json.golden", []string{"nearmiss", "-json"}},
		{"postmortems.golden", []string{"postmortems"}},
		{"postmortems_json.golden", []string{"postmortems", "-json"}},
		{"perfetto.golden", []string{"perfetto"}},
		{"cat.golden", []string{"cat"}},
	} {
		out.Reset()
		errOut.Reset()
		if code := run(append(tc.args, fixture), &out, &errOut); code != 0 {
			t.Fatalf("%q over fixture: exit %d, stderr %q", tc.args, code, errOut.String())
		}
		checkGolden(t, tc.golden, out.String())
	}
}
