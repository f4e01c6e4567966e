package journal_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"hwtwbg/internal/jview"
	"hwtwbg/journal"
)

func TestAnalyze(t *testing.T) {
	j := journal.New(1, 256)
	emitB := func(txn int64, res string, depth uint64, ts int64) {
		r := journal.Record{Kind: journal.KindBlock, Txn: txn, Arg: depth, TS: ts}
		r.SetResource(res)
		j.Ring(0).Emit(&r)
	}
	emitG := func(txn int64, res string, wait uint64, ts int64) {
		r := journal.Record{Kind: journal.KindGrant, Txn: txn, Arg: wait, TS: ts}
		r.SetResource(res)
		j.Ring(0).Emit(&r)
	}
	// "hot" convoys: three blocks, one waited grant, never drains.
	emitB(1, "hot", 1, 10)
	emitB(2, "hot", 2, 20)
	emitG(1, "hot", 100, 30)
	emitB(3, "hot", 2, 40)
	// "calm" blocks once and drains.
	emitB(4, "calm", 1, 50)
	emitG(4, "calm", 10, 60)
	j.Control().Emit(&journal.Record{Kind: journal.KindDetect, Txn: 1, Arg: 500, Aux: 2, TS: 70})
	j.Control().Emit(&journal.Record{Kind: journal.KindVictim, Txn: 2, Aux: 1, TS: 71})
	j.Control().Emit(&journal.Record{Kind: journal.KindReposition, Txn: 3, Aux: 1, TS: 72})

	rep := jview.Analyze(j.Snapshot())
	if rep.Deadlocks != 2 || rep.Victims != 1 || rep.Repositions != 1 {
		t.Fatalf("detector summary wrong: %+v", rep)
	}
	if rep.DepthDist[1] != 2 || rep.DepthDist[2] != 2 {
		t.Fatalf("depth distribution wrong: %v", rep.DepthDist)
	}
	if len(rep.Resources) != 2 || rep.Resources[0].Resource != "hot" {
		t.Fatalf("contention ranking wrong: %+v", rep.Resources)
	}
	hot := rep.Resources[0]
	if !hot.Convoy || hot.MaxWaiters != 2 || hot.Blocks != 3 {
		t.Fatalf("hot misanalyzed: %+v", hot)
	}
	if len(rep.Convoys) != 1 {
		t.Fatalf("convoys = %+v", rep.Convoys)
	}
	calm := rep.Resources[1]
	if calm.Convoy {
		t.Fatalf("calm flagged as convoy: %+v", calm)
	}
	var text bytes.Buffer
	rep.WriteReport(&text)
	for _, want := range []string{"wait-chain depth", "contention ranking", "CONVOY", "hot"} {
		if !bytes.Contains(text.Bytes(), []byte(want)) {
			t.Fatalf("report missing %q:\n%s", want, text.String())
		}
	}
}

// Degenerate-input coverage for Analyze: dumps from wrapped, torn or
// empty rings must never panic or mis-attribute spans.

// TestAnalyzeEmpty: an empty dump yields the zero report.
func TestAnalyzeEmpty(t *testing.T) {
	for _, recs := range [][]journal.Record{nil, {}} {
		rep := jview.Analyze(recs)
		if rep.Records != 0 || rep.Txns != 0 || rep.Span != 0 || rep.Orphans != 0 {
			t.Fatalf("empty dump analyzed to %+v", rep)
		}
		if len(rep.Latencies) != 0 {
			t.Fatalf("empty dump grew latency populations: %+v", rep.Latencies)
		}
		var text bytes.Buffer
		rep.WriteReport(&text) // must not panic
		if !strings.Contains(text.String(), "0 records") {
			t.Fatalf("empty report:\n%s", text.String())
		}
	}
}

// TestAnalyzeTornOnly: a ring whose every record was torn away
// snapshots to an empty dump — same contract as empty.
func TestAnalyzeTornOnly(t *testing.T) {
	j := journal.New(1, 8)
	rep := jview.Analyze(j.Snapshot())
	if rep.Records != 0 {
		t.Fatalf("fresh journal analyzed to %+v", rep)
	}
}

// TestAnalyzeOrphanedLifecycle: commit/abort records whose begin was
// lost to ring overwrite must be counted as orphans, not attributed a
// bogus span (a zero-based span would poison the percentiles).
func TestAnalyzeOrphanedLifecycle(t *testing.T) {
	recs := []journal.Record{
		// txn 1: full lifecycle, 100ns span.
		{Kind: journal.KindBegin, Txn: 1, TS: 100},
		{Kind: journal.KindCommit, Txn: 1, TS: 200},
		// txn 2: begin lost to wrap; only the commit survives.
		{Kind: journal.KindCommit, Txn: 2, TS: 500},
		// txn 3: begin lost; only the abort survives.
		{Kind: journal.KindAbort, Txn: 3, TS: 600},
	}
	rep := jview.Analyze(recs)
	if rep.Orphans != 2 {
		t.Fatalf("orphans = %d, want 2", rep.Orphans)
	}
	if rep.Txns != 3 {
		t.Fatalf("txns = %d, want 3 (orphans still count as transactions)", rep.Txns)
	}
	ls, ok := rep.Latencies[jview.LatencyCommit]
	if !ok || ls.Count != 1 || ls.Max != 100 {
		t.Fatalf("commit population = %+v, want exactly txn 1's 100ns span", ls)
	}
	if _, ok := rep.Latencies[jview.LatencyAbort]; ok {
		t.Fatalf("orphaned abort grew a span: %+v", rep.Latencies[jview.LatencyAbort])
	}
	var text bytes.Buffer
	rep.WriteReport(&text)
	if !strings.Contains(text.String(), "ring loss") {
		t.Fatalf("report silent about ring loss:\n%s", text.String())
	}
}

// TestAnalyzeOrphanedGrant: a grant whose block record was overwritten
// still contributes its wait (the span rides in the record itself) and
// must not underflow the outstanding-waiter accounting.
func TestAnalyzeOrphanedGrant(t *testing.T) {
	g := journal.Record{Kind: journal.KindGrant, Txn: 1, Arg: 250, TS: 100}
	g.SetResource("r")
	rep := jview.Analyze([]journal.Record{g})
	ls, ok := rep.Latencies[jview.LatencyWait]
	if !ok || ls.Count != 1 || ls.Max != 250 {
		t.Fatalf("wait population = %+v, want the grant's own 250ns", ls)
	}
	if len(rep.Resources) != 0 {
		// The resource never blocked in the visible trace, so it does not
		// enter the contention ranking.
		t.Fatalf("orphaned grant ranked a resource: %+v", rep.Resources)
	}
}

// TestAnalyzeClockSkewSpanDropped: a commit time-stamped before its
// begin (cross-shard clock skew in the merged snapshot) must not
// produce a negative span.
func TestAnalyzeClockSkewSpanDropped(t *testing.T) {
	recs := []journal.Record{
		{Kind: journal.KindBegin, Txn: 1, TS: 500},
		{Kind: journal.KindCommit, Txn: 1, TS: 400},
	}
	rep := jview.Analyze(recs)
	if _, ok := rep.Latencies[jview.LatencyCommit]; ok {
		t.Fatalf("negative span admitted: %+v", rep.Latencies[jview.LatencyCommit])
	}
	if rep.Orphans != 0 {
		t.Fatalf("skewed pair counted as orphan: %d", rep.Orphans)
	}
}

// TestLatencyStatsPercentiles pins the nearest-rank extraction, over
// the wait population of grant records carrying the samples.
func TestLatencyStatsPercentiles(t *testing.T) {
	latencyStats := func(samples []time.Duration) jview.LatencyStats {
		recs := make([]journal.Record, len(samples))
		for i, d := range samples {
			recs[i] = journal.Record{Kind: journal.KindGrant, Txn: int64(i + 1), Arg: uint64(d)}
		}
		return jview.Analyze(recs).Latencies[jview.LatencyWait]
	}
	if got := latencyStats(nil); got.Count != 0 || got.Max != 0 {
		t.Fatalf("empty population: %+v", got)
	}
	one := latencyStats([]time.Duration{7})
	if one.P50 != 7 || one.P95 != 7 || one.P99 != 7 || one.Max != 7 {
		t.Fatalf("single sample: %+v", one)
	}
	// Two samples: p50 is the lower, p95/p99/max the higher.
	two := latencyStats([]time.Duration{100, 1})
	if two.P50 != 1 || two.P95 != 100 || two.P99 != 100 || two.Max != 100 {
		t.Fatalf("two samples: %+v", two)
	}
	// 1..100: nearest rank puts pNN exactly at sample NN.
	samples := make([]time.Duration, 100)
	for i := range samples {
		samples[i] = time.Duration(100 - i) // reversed: must sort
	}
	hundred := latencyStats(samples)
	if hundred.P50 != 50 || hundred.P95 != 95 || hundred.P99 != 99 || hundred.Max != 100 {
		t.Fatalf("1..100: %+v", hundred)
	}
}

// TestAnalyzeLatencyPopulations: an ordinary trace grows all three
// populations with the right sample counts.
func TestAnalyzeLatencyPopulations(t *testing.T) {
	g := func(txn int64, wait uint64, ts int64) journal.Record {
		r := journal.Record{Kind: journal.KindGrant, Txn: txn, Arg: wait, TS: ts}
		r.SetResource("r")
		return r
	}
	recs := []journal.Record{
		{Kind: journal.KindBegin, Txn: 1, TS: 0},
		{Kind: journal.KindBegin, Txn: 2, TS: 10},
		g(1, 0, 20),  // immediate grant: excluded from the wait population
		g(2, 30, 50), // waited grant
		{Kind: journal.KindCommit, Txn: 1, TS: 100},
		{Kind: journal.KindAbort, Txn: 2, TS: 110},
	}
	rep := jview.Analyze(recs)
	if ls := rep.Latencies[jview.LatencyWait]; ls.Count != 1 || ls.Max != 30 {
		t.Fatalf("wait population: %+v", ls)
	}
	if ls := rep.Latencies[jview.LatencyCommit]; ls.Count != 1 || ls.Max != 100 {
		t.Fatalf("commit population: %+v", ls)
	}
	if ls := rep.Latencies[jview.LatencyAbort]; ls.Count != 1 || ls.Max != 100 {
		t.Fatalf("abort population: %+v", ls)
	}
}

// SLO parsing and checking.

func TestParseSLOs(t *testing.T) {
	slos, err := jview.ParseSLOs("p99=1ms, commit:p95=10ms ,wait:max=50ms")
	if err != nil {
		t.Fatal(err)
	}
	want := []jview.SLO{
		{Kind: jview.LatencyWait, Pct: "p99", Bound: time.Millisecond},
		{Kind: jview.LatencyCommit, Pct: "p95", Bound: 10 * time.Millisecond},
		{Kind: jview.LatencyWait, Pct: "max", Bound: 50 * time.Millisecond},
	}
	if len(slos) != len(want) {
		t.Fatalf("parsed %+v, want %+v", slos, want)
	}
	for i := range want {
		if slos[i] != want[i] {
			t.Fatalf("slo %d = %+v, want %+v", i, slos[i], want[i])
		}
	}
	for _, bad := range []string{"", " , ", "p99", "p42=1ms", "gc:p99=1ms", "p99=0", "p99=-1ms", "p99=banana"} {
		if _, err := jview.ParseSLOs(bad); err == nil {
			t.Errorf("ParseSLOs(%q) accepted", bad)
		}
	}
}

func TestCheckSLOs(t *testing.T) {
	rep := jview.Report{Latencies: map[string]jview.LatencyStats{
		jview.LatencyWait: {Count: 10, P50: 5, P95: 50, P99: 90, Max: 100},
	}}
	results := rep.CheckSLOs([]jview.SLO{
		{Kind: jview.LatencyWait, Pct: "p99", Bound: 90},  // boundary: inclusive
		{Kind: jview.LatencyWait, Pct: "max", Bound: 99},  // violated
		{Kind: jview.LatencyCommit, Pct: "p50", Bound: 1}, // no samples: vacuous pass
	})
	if !results[0].OK || results[0].Actual != 90 {
		t.Fatalf("boundary objective: %+v", results[0])
	}
	if results[1].OK {
		t.Fatalf("violated objective passed: %+v", results[1])
	}
	if !results[2].OK || results[2].Count != 0 {
		t.Fatalf("vacuous objective: %+v", results[2])
	}
	var text bytes.Buffer
	if jview.WriteSLOResults(&text, results) {
		t.Fatal("allOK true with a violation present")
	}
	out := text.String()
	for _, want := range []string{"PASS", "FAIL", "(no samples)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered results missing %q:\n%s", want, out)
		}
	}
}
