package journal_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"hwtwbg/internal/jview"
	"hwtwbg/journal"
)

func TestBuildTraceShape(t *testing.T) {
	j := journal.New(1, 64)
	j.Control().Emit(&journal.Record{Kind: journal.KindBegin, Txn: 1, TS: 1000})
	g := journal.Record{Kind: journal.KindGrant, Txn: 1, Arg: 5000, TS: 7000, Mode: 5}
	g.SetResource("hot")
	j.Ring(0).Emit(&g)
	j.Control().Emit(&journal.Record{Kind: journal.KindDetect, Txn: 1, Arg: 2000, Aux: 1, TS: 9000})
	v := journal.Record{Kind: journal.KindVictim, Txn: 9, Aux: 1, TS: 9100}
	j.Control().Emit(&v)
	j.Control().Emit(&journal.Record{Kind: journal.KindCommit, Txn: 1, TS: 9500})

	var buf bytes.Buffer
	if err := jview.WriteTrace(&buf, j.Snapshot()); err != nil {
		t.Fatal(err)
	}
	// The export must load as the Chrome trace-event object schema:
	// {"traceEvents": [ {name, ph, ts, pid, tid, ...}, ... ]}.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	var sawWait, sawActivation, sawVictim, sawThreadName bool
	for _, ev := range doc.TraceEvents {
		for _, key := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event %v missing required key %q", ev, key)
			}
		}
		ph := ev["ph"].(string)
		switch ph {
		case "X":
			if _, ok := ev["dur"]; !ok {
				t.Fatalf("complete event without dur: %v", ev)
			}
		case "M", "i":
		default:
			t.Fatalf("unexpected phase %q", ph)
		}
		name := ev["name"].(string)
		switch {
		case name == "wait hot X":
			sawWait = true
			if ev["dur"].(float64) != 5.0 { // 5000ns = 5us
				t.Fatalf("wait span dur = %v, want 5", ev["dur"])
			}
		case name == "activation 1":
			sawActivation = true
		case name == "victim T9":
			sawVictim = true
		case name == "thread_name":
			sawThreadName = true
		}
	}
	if !sawWait || !sawActivation || !sawVictim || !sawThreadName {
		t.Fatalf("missing expected events: wait=%v activation=%v victim=%v threadName=%v",
			sawWait, sawActivation, sawVictim, sawThreadName)
	}
}
