package journal_test

import (
	"bytes"
	"strings"
	"testing"

	"hwtwbg/internal/jview"
	"hwtwbg/internal/lock"
	"hwtwbg/journal"
)

// nmRec builds one record for near-miss replay tests.
func nmRec(kind journal.Kind, txn int64, res string, mode lock.Mode, ts int64) journal.Record {
	r := journal.Record{Kind: kind, Txn: txn, Mode: uint8(mode), TS: ts}
	if res != "" {
		r.SetResource(res)
	}
	return r
}

// TestNearMissFlagsReversal is the acceptance case: a trace in which
// two transactions acquire {a, b} in opposite orders with exclusive
// modes — sequentially, so no deadlock ever formed — must be flagged
// as a near miss.
func TestNearMissFlagsReversal(t *testing.T) {
	recs := []journal.Record{
		nmRec(journal.KindGrant, 1, "a", lock.X, 10),
		nmRec(journal.KindGrant, 1, "b", lock.X, 20),
		nmRec(journal.KindCommit, 1, "", 0, 30),
		nmRec(journal.KindGrant, 2, "b", lock.X, 40),
		nmRec(journal.KindGrant, 2, "a", lock.X, 50),
		nmRec(journal.KindCommit, 2, "", 0, 60),
	}
	rep := jview.NearMisses(recs)
	if rep.TxnsAnalyzed != 2 || rep.OrderedPairs != 2 {
		t.Fatalf("analyzed %d txns, %d ordered pairs, want 2/2", rep.TxnsAnalyzed, rep.OrderedPairs)
	}
	if len(rep.Reversals) != 1 {
		t.Fatalf("reversals = %+v, want exactly one", rep.Reversals)
	}
	p := rep.Reversals[0]
	if p.ABTxns != 1 || p.BATxns != 1 || p.Pairs != 1 {
		t.Fatalf("reversal counts wrong: %+v", p)
	}
	if p.Materialized {
		t.Fatalf("no cycle evidence in the trace, yet Materialized: %+v", p)
	}
	got := map[string]bool{p.ResourceA: true, p.ResourceB: true}
	if !got["a"] || !got["b"] {
		t.Fatalf("reversal names %q/%q, want a/b", p.ResourceA, p.ResourceB)
	}
	var text bytes.Buffer
	rep.WriteReport(&text)
	if !strings.Contains(text.String(), "NEAR MISS") {
		t.Fatalf("report missing NEAR MISS tag:\n%s", text.String())
	}
}

// TestNearMissCompatibleModesNotFlagged: the same reversal under
// compatible modes (shared on both sides) cannot deadlock and must not
// be reported.
func TestNearMissCompatibleModesNotFlagged(t *testing.T) {
	recs := []journal.Record{
		nmRec(journal.KindGrant, 1, "a", lock.S, 10),
		nmRec(journal.KindGrant, 1, "b", lock.S, 20),
		nmRec(journal.KindCommit, 1, "", 0, 30),
		nmRec(journal.KindGrant, 2, "b", lock.S, 40),
		nmRec(journal.KindGrant, 2, "a", lock.S, 50),
		nmRec(journal.KindCommit, 2, "", 0, 60),
	}
	if rep := jview.NearMisses(recs); len(rep.Reversals) != 0 {
		t.Fatalf("compatible reversal flagged: %+v", rep.Reversals)
	}
	// Conflict on only one of the two resources is not enough either:
	// T2 can wait for a but T1 never waits for b.
	recs = []journal.Record{
		nmRec(journal.KindGrant, 1, "a", lock.X, 10),
		nmRec(journal.KindGrant, 1, "b", lock.S, 20),
		nmRec(journal.KindCommit, 1, "", 0, 30),
		nmRec(journal.KindGrant, 2, "b", lock.S, 40),
		nmRec(journal.KindGrant, 2, "a", lock.X, 50),
		nmRec(journal.KindCommit, 2, "", 0, 60),
	}
	if rep := jview.NearMisses(recs); len(rep.Reversals) != 0 {
		t.Fatalf("single-sided conflict flagged: %+v", rep.Reversals)
	}
}

// TestNearMissSameOrderNotFlagged: transactions that agree on the
// acquisition order cannot cross, whatever the modes.
func TestNearMissSameOrderNotFlagged(t *testing.T) {
	recs := []journal.Record{
		nmRec(journal.KindGrant, 1, "a", lock.X, 10),
		nmRec(journal.KindGrant, 1, "b", lock.X, 20),
		nmRec(journal.KindCommit, 1, "", 0, 30),
		nmRec(journal.KindGrant, 2, "a", lock.X, 40),
		nmRec(journal.KindGrant, 2, "b", lock.X, 50),
		nmRec(journal.KindCommit, 2, "", 0, 60),
	}
	rep := jview.NearMisses(recs)
	if len(rep.Reversals) != 0 {
		t.Fatalf("same-order pair flagged: %+v", rep.Reversals)
	}
	if rep.TxnsAnalyzed != 2 || rep.OrderedPairs != 2 {
		t.Fatalf("analyzed %d/%d, want 2 txns, 2 ordered pairs", rep.TxnsAnalyzed, rep.OrderedPairs)
	}
}

// TestNearMissConversionKeepsOrder: a mode conversion (re-grant of a
// held resource) strengthens the mode but must not create a second
// order entry — and the strengthened mode is what conflicts.
func TestNearMissConversionKeepsOrder(t *testing.T) {
	recs := []journal.Record{
		nmRec(journal.KindGrant, 1, "a", lock.S, 10),
		nmRec(journal.KindGrant, 1, "b", lock.X, 20),
		nmRec(journal.KindGrant, 1, "a", lock.X, 25), // conversion S->X on a
		nmRec(journal.KindCommit, 1, "", 0, 30),
		nmRec(journal.KindGrant, 2, "b", lock.X, 40),
		nmRec(journal.KindGrant, 2, "a", lock.S, 50),
		nmRec(journal.KindCommit, 2, "", 0, 60),
	}
	rep := jview.NearMisses(recs)
	if rep.OrderedPairs != 2 {
		t.Fatalf("ordered pairs = %d, want 2 (conversion must not add one)", rep.OrderedPairs)
	}
	// T1 holds a=X (after conversion), b=X; T2 holds b=X, a=S. X/S
	// conflicts on a and X/X on b, so the reversal stands.
	if len(rep.Reversals) != 1 {
		t.Fatalf("reversals = %+v, want one (converted mode conflicts)", rep.Reversals)
	}
}

// TestNearMissMaterialized: when both resources of a reversal appear in
// resolved-cycle evidence the pair is a deadlock that happened, not a
// near miss.
func TestNearMissMaterialized(t *testing.T) {
	ce1 := nmRec(journal.KindCycleEdge, 1, "a", lock.X, 25)
	ce2 := nmRec(journal.KindCycleEdge, 2, "b", lock.X, 26)
	recs := []journal.Record{
		nmRec(journal.KindGrant, 1, "a", lock.X, 10),
		nmRec(journal.KindGrant, 1, "b", lock.X, 20),
		ce1, ce2,
		nmRec(journal.KindCommit, 1, "", 0, 30),
		nmRec(journal.KindGrant, 2, "b", lock.X, 40),
		nmRec(journal.KindGrant, 2, "a", lock.X, 50),
		nmRec(journal.KindAbort, 2, "", 0, 60), // aborts close the order too
	}
	rep := jview.NearMisses(recs)
	if len(rep.Reversals) != 1 || !rep.Reversals[0].Materialized {
		t.Fatalf("reversals = %+v, want one materialized", rep.Reversals)
	}
	var text bytes.Buffer
	rep.WriteReport(&text)
	if !strings.Contains(text.String(), "materialized") {
		t.Fatalf("report missing materialized tag:\n%s", text.String())
	}
}

// TestNearMissRanking: reversals sort by recurrence, most conflicting
// transaction pairs first.
func TestNearMissRanking(t *testing.T) {
	var recs []journal.Record
	ts := int64(0)
	add := func(txn int64, first, second string) {
		ts += 10
		recs = append(recs, nmRec(journal.KindGrant, txn, first, lock.X, ts))
		ts += 10
		recs = append(recs, nmRec(journal.KindGrant, txn, second, lock.X, ts))
		ts += 10
		recs = append(recs, nmRec(journal.KindCommit, txn, "", 0, ts))
	}
	// Pair {c,d}: 2×2 cross pairs = 4; pair {a,b}: 1×1 = 1.
	add(1, "c", "d")
	add(2, "c", "d")
	add(3, "d", "c")
	add(4, "d", "c")
	add(5, "a", "b")
	add(6, "b", "a")
	rep := jview.NearMisses(recs)
	if len(rep.Reversals) != 2 {
		t.Fatalf("reversals = %+v, want two pairs", rep.Reversals)
	}
	if rep.Reversals[0].Pairs != 4 || rep.Reversals[1].Pairs != 1 {
		t.Fatalf("ranking wrong: %+v", rep.Reversals)
	}
}

// TestNearMissOpenTxnIgnored: a transaction with no commit/abort in the
// trace (in flight at snapshot, or its end lost to ring wrap) must not
// contribute orders — its final lock set is unknown.
func TestNearMissOpenTxnIgnored(t *testing.T) {
	recs := []journal.Record{
		nmRec(journal.KindGrant, 1, "a", lock.X, 10),
		nmRec(journal.KindGrant, 1, "b", lock.X, 20),
		nmRec(journal.KindCommit, 1, "", 0, 30),
		nmRec(journal.KindGrant, 2, "b", lock.X, 40),
		nmRec(journal.KindGrant, 2, "a", lock.X, 50),
		// no commit for txn 2
	}
	rep := jview.NearMisses(recs)
	if rep.TxnsAnalyzed != 1 || len(rep.Reversals) != 0 {
		t.Fatalf("open txn contributed: %+v", rep)
	}
}
