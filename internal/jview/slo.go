package jview

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// SLO checking over a journal-derived Report: declare latency
// objectives ("wait p99 ≤ 1ms", "commit p95 ≤ 10ms"), evaluate them
// against the exact percentiles the trace yields, and fail loudly.
// This replaces ad-hoc timer plumbing in benchmarks and load drivers —
// the flight recorder is the single source of latency truth, and
// `hwtrace report -slo ...` turns any dump into a pass/fail gate.

// SLO is one latency objective: population Kind (LatencyWait,
// LatencyCommit or LatencyAbort), percentile Pct ("p50", "p95", "p99"
// or "max") and the Bound it must not exceed.
type SLO struct {
	Kind  string        `json:"kind"`
	Pct   string        `json:"pct"`
	Bound time.Duration `json:"bound_ns"`
}

// SLOResult is one evaluated objective. A population with zero samples
// trivially passes (Actual 0, Count 0): an SLO over latencies that
// never occurred is vacuous, and the Count lets callers flag it.
type SLOResult struct {
	SLO
	Actual time.Duration `json:"actual_ns"`
	Count  int           `json:"count"`
	OK     bool          `json:"ok"`
}

// ParseSLOs parses a comma-separated objective list of the form
//
//	[kind:]pNN=duration
//
// e.g. "p99=1ms" (kind defaults to wait), "commit:p95=10ms,wait:max=50ms".
// Recognized kinds are wait, commit and abort; recognized percentiles
// p50, p95, p99 and max.
func ParseSLOs(spec string) ([]SLO, error) {
	var out []SLO
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		lhs, rhs, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("journal: SLO %q: want [kind:]pNN=duration", part)
		}
		kind := LatencyWait
		pct := lhs
		if k, p, hasKind := strings.Cut(lhs, ":"); hasKind {
			kind, pct = k, p
		}
		switch kind {
		case LatencyWait, LatencyCommit, LatencyAbort:
		default:
			return nil, fmt.Errorf("journal: SLO %q: unknown kind %q (want wait, commit or abort)", part, kind)
		}
		switch pct {
		case "p50", "p95", "p99", "max":
		default:
			return nil, fmt.Errorf("journal: SLO %q: unknown percentile %q (want p50, p95, p99 or max)", part, pct)
		}
		bound, err := time.ParseDuration(rhs)
		if err != nil || bound <= 0 {
			return nil, fmt.Errorf("journal: SLO %q: bad bound %q", part, rhs)
		}
		out = append(out, SLO{Kind: kind, Pct: pct, Bound: bound})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("journal: empty SLO spec %q", spec)
	}
	return out, nil
}

// CheckSLOs evaluates the objectives against the report's latency
// percentiles, in the order given.
func (rep Report) CheckSLOs(slos []SLO) []SLOResult {
	out := make([]SLOResult, 0, len(slos))
	for _, s := range slos {
		ls := rep.Latencies[s.Kind] // zero value when absent: vacuous pass
		var actual time.Duration
		switch s.Pct {
		case "p50":
			actual = ls.P50
		case "p95":
			actual = ls.P95
		case "p99":
			actual = ls.P99
		case "max":
			actual = ls.Max
		}
		out = append(out, SLOResult{SLO: s, Actual: actual, Count: ls.Count, OK: actual <= s.Bound})
	}
	return out
}

// WriteSLOResults renders the evaluations one per line and reports
// whether every objective held.
func WriteSLOResults(w io.Writer, results []SLOResult) (allOK bool) {
	allOK = true
	for _, r := range results {
		verdict := "PASS"
		if !r.OK {
			verdict = "FAIL"
			allOK = false
		}
		note := ""
		if r.Count == 0 {
			note = " (no samples)"
		}
		fmt.Fprintf(w, "SLO %s %s = %v <= %v: %s%s\n", r.Kind, r.Pct, r.Actual, r.Bound, verdict, note)
	}
	return allOK
}
