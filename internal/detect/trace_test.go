package detect

import (
	"strings"
	"testing"

	"hwtwbg/internal/table"
)

// TestTraceExample51 narrates the Example 5.1 run and checks the trace
// contains the paper's milestones in order: the 3-cycle, T3's
// selection, the 2-cycle, T2's selection, then Step 3's abort of T2 and
// salvage of T3.
func TestTraceExample51(t *testing.T) {
	tb := example51(t)
	costs := NewCostTable(1)
	costs.Set(1, 6)
	costs.Set(2, 4)
	costs.Set(3, 1)
	var lines []string
	d := New(tb, Config{Costs: costs, Trace: func(e TraceEvent) {
		lines = append(lines, e.String())
	}})
	d.Run()
	script := strings.Join(lines, "\n")
	milestones := []string{
		"cycle detected: T1 T2 T3",
		"selected victim T3 (abort)",
		"cycle detected: T1 T2\n",
		"selected victim T2 (abort)",
		"step 3: abort T2",
		"step 3: salvage T3 (already granted)",
	}
	rest := script + "\n"
	for _, m := range milestones {
		i := strings.Index(rest, m)
		if i < 0 {
			t.Fatalf("trace missing (or out of order) %q:\n%s", m, script)
		}
		rest = rest[i+len(m):]
	}
	// Candidate pricing must show T3's TDR-1 candidate at cost 1 and the
	// TDR-2 candidate pricing ST={T2} at 4/2 = 2.
	if !strings.Contains(script, "candidate TDR-1 T3 (cost 1.00)") {
		t.Errorf("missing T3 candidate:\n%s", script)
	}
	if !strings.Contains(script, "candidate TDR-2 at junction T3 (cost 2.00)") {
		t.Errorf("missing TDR-2 candidate:\n%s", script)
	}
}

// TestTraceExample41TDR2 checks the TDR-2 selection event fires for the
// uniform-cost Example 4.1 run, and pins the run's decisions: the
// cycle the paper walks, the TDR-1 candidates {T1, T2, T7, T3} at cost
// 1, and the TDR-2 candidate at junction T3 at cost 1/2, which wins.
func TestTraceExample41TDR2(t *testing.T) {
	tb := example41(t)
	var events []TraceEvent
	New(tb, Config{Trace: func(e TraceEvent) { events = append(events, e) }}).Run()
	var decisions []string
	var sawTDR2, sawVisit, sawSkip, sawBacktrack bool
	for _, e := range events {
		switch e.Kind {
		case TraceCycle, TraceCandidate, TraceVictimTDR1, TraceAbort, TraceSalvage:
			decisions = append(decisions, e.String())
		}
		switch e.Kind {
		case TraceVictimTDR2:
			sawTDR2 = true
			decisions = append(decisions, e.String())
			if e.From != 3 {
				t.Errorf("TDR-2 at junction %v, want T3", e.From)
			}
		case TraceVisit:
			sawVisit = true
		case TraceSkip:
			sawSkip = true
		case TraceBacktrack:
			sawBacktrack = true
		}
	}
	if !sawTDR2 || !sawVisit || !sawSkip || !sawBacktrack {
		t.Fatalf("missing event kinds: tdr2=%v visit=%v skip=%v backtrack=%v",
			sawTDR2, sawVisit, sawSkip, sawBacktrack)
	}
	want := []string{
		"cycle detected: T1 T2 T5 T6 T7 T8 T9 T3",
		"candidate TDR-1 T1 (cost 1.00)",
		"candidate TDR-1 T2 (cost 1.00)",
		"candidate TDR-1 T7 (cost 1.00)",
		"candidate TDR-1 T3 (cost 1.00)",
		"candidate TDR-2 at junction T3 (cost 0.50)",
		"selected TDR-2 repositioning at junction T3",
	}
	if got := strings.Join(decisions, "\n"); got != strings.Join(want, "\n") {
		t.Errorf("decisions:\n%s\nwant:\n%s", got, strings.Join(want, "\n"))
	}
}

// TestTraceStrings covers every event rendering.
func TestTraceStrings(t *testing.T) {
	cases := map[string]TraceEvent{
		"visit T1 -> T2":                              {Kind: TraceVisit, From: 1, To: 2},
		"skip edge T1 -> T0":                          {Kind: TraceSkip, From: 1, To: 0},
		"backtrack T2 -> T1":                          {Kind: TraceBacktrack, From: 2, To: 1},
		"backtrack T1 (root done)":                    {Kind: TraceBacktrack, From: 1},
		"cycle detected: T1 T2":                       {Kind: TraceCycle, Cycle: []table.TxnID{1, 2}},
		"candidate TDR-1 T3 (cost 2.50)":              {Kind: TraceCandidate, From: 3, Cost: 2.5},
		"candidate TDR-2 at junction T3 (cost 0.50)":  {Kind: TraceCandidate, From: 3, Cost: 0.5, TDR2: true},
		"selected victim T9 (abort)":                  {Kind: TraceVictimTDR1, From: 9},
		"selected TDR-2 repositioning at junction T3": {Kind: TraceVictimTDR2, From: 3},
		"step 3: abort T2":                            {Kind: TraceAbort, From: 2},
		"step 3: salvage T3 (already granted)":        {Kind: TraceSalvage, From: 3},
	}
	for want, e := range cases {
		if got := e.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
	if got := (TraceEvent{Kind: TraceKind(99)}).String(); got != "?" {
		t.Errorf("unknown kind rendered %q, want ?", got)
	}
	if TraceVisit.String() != "visit" {
		t.Error("kind name")
	}
}
