package journal_test

import (
	"os"
	"path/filepath"
	"testing"

	"hwtwbg/internal/jview"
	"hwtwbg/internal/lock"
	"hwtwbg/journal"
)

// activation builds the detector records of one resolving activation in
// emission order: detect, then per cycle the head followed by its edges.
// A cycle is a vertex list; vertex i is waited by vertex i+1 on
// resource "r<i>", and the first vertex is the victim.
func activation(seq uint32, ts int64, cycles ...[]int64) []journal.Record {
	recs := []journal.Record{{Kind: journal.KindDetect, Txn: int64(seq), TS: ts, Aux: uint32(len(cycles))}}
	for _, c := range cycles {
		recs = append(recs, journal.Record{Kind: journal.KindVictim, Txn: c[0], TS: ts, Aux: seq})
		for i, from := range c {
			e := journal.Record{Kind: journal.KindCycleEdge, Txn: from, Arg: uint64(c[(i+1)%len(c)]), TS: ts, Aux: seq}
			e.SetResource("r" + string(rune('0'+i)))
			recs = append(recs, e)
		}
	}
	return recs
}

// The bounds Postmortems documents: the most recent maxPostmortems
// resolutions, each with a tail of at most postmortemTailCap events.
const (
	maxPostmortems    = 128
	postmortemTailCap = 64
)

func checkClosed(t *testing.T, pm jview.Postmortem) {
	t.Helper()
	if len(pm.Cycle) == 0 {
		t.Fatalf("postmortem without a cycle: %+v", pm)
	}
	for i, e := range pm.Cycle {
		if e.To != pm.Cycle[(i+1)%len(pm.Cycle)].From {
			t.Fatalf("open cycle: %+v", pm.Cycle)
		}
	}
}

// TestPostmortemsFixtureGolden decodes the checked-in hwtrace dump with
// no manager anywhere: the view is a pure function of the records.
func TestPostmortemsFixtureGolden(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "cmd", "hwtrace", "testdata", "journal_fixture.bin"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := journal.Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	pms, incomplete := jview.Postmortems(recs)
	if len(pms) != 1 || incomplete != 0 {
		t.Fatalf("%d postmortems, %d incomplete, want 1/0", len(pms), incomplete)
	}
	pm := pms[0]
	checkClosed(t, pm)
	if pm.TDR2 || pm.Activation != 1 || len(pm.Cycle) != 2 {
		t.Fatalf("postmortem = %+v, want activation 1's two-edge victim abort", pm)
	}
	onCycle := false
	for _, e := range pm.Cycle {
		onCycle = onCycle || e.From == pm.Victim
		if e.Resource != "u" && e.Resource != "v" {
			t.Errorf("edge resource %q, want u or v", e.Resource)
		}
		if len(e.Evidence) != 2 {
			t.Errorf("edge %+v: want the holder's grant and the waiter's block", e)
		}
	}
	if !onCycle {
		t.Fatalf("victim T%d not on its cycle %+v", pm.Victim, pm.Cycle)
	}
	if len(pm.Tail) == 0 {
		t.Fatal("empty tail")
	}
	for _, ev := range pm.Tail {
		if ev.Time.After(pm.Time) {
			t.Errorf("tail event %+v is later than the resolving activation", ev)
		}
	}
	events, _ := jview.Resolutions(recs)
	if len(events) != 1 || events[0].Kind != "victim" || events[0].Txn != pm.Victim || events[0].Activation != 1 {
		t.Fatalf("Resolutions = %+v", events)
	}
}

// TestResolutionsSkipAndCountBrokenGroups covers what a reader can
// catch: a head lost to ring wrap, an activation mid-emission, and two
// cycles of one activation sharing a vertex.
func TestResolutionsSkipAndCountBrokenGroups(t *testing.T) {
	whole := activation(2, 200, []int64{1, 2, 3}, []int64{3, 4})
	cases := []struct {
		name       string
		recs       []journal.Record
		victims    []int64
		incomplete int
	}{
		{"whole", whole, []int64{1, 3}, 0},
		// The wrap took the detect record, the first head and one edge.
		{"head overwritten", whole[3:], []int64{3}, 1},
		// The wrap took exactly the first group.
		{"first group gone", whole[5:], []int64{3}, 0},
		// The reader arrived before the second cycle's last edge.
		{"mid-emission", whole[:len(whole)-1], []int64{1}, 1},
		{"head only", whole[:2], nil, 1},
		// A torn read dropped a middle edge of the first cycle.
		{"edge torn away", append(append([]journal.Record{}, whole[:3]...), whole[4:]...), []int64{3}, 1},
		// The tail end of an older activation whose head is gone.
		{"older headless edges", append(append([]journal.Record{}, activation(1, 100, []int64{7, 8})[3:]...), whole...), []int64{1, 3}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pms, incomplete := jview.Postmortems(tc.recs)
			if incomplete != tc.incomplete || len(pms) != len(tc.victims) {
				t.Fatalf("%d postmortems, %d incomplete, want %d/%d", len(pms), incomplete, len(tc.victims), tc.incomplete)
			}
			for i, pm := range pms {
				checkClosed(t, pm)
				if pm.Victim != tc.victims[i] || pm.Activation != 2 {
					t.Fatalf("postmortem %d = %+v, want victim T%d", i, pm, tc.victims[i])
				}
			}
			events, inc := jview.Resolutions(tc.recs)
			if inc != tc.incomplete || len(events) != len(tc.victims) {
				t.Fatalf("Resolutions: %d events, %d incomplete", len(events), inc)
			}
		})
	}
	// Grouping is by emission order: victim T3 is a vertex of T1's cycle
	// too, and must still come back with its own two-edge cycle.
	pms, _ := jview.Postmortems(whole)
	if len(pms[0].Cycle) != 3 || len(pms[1].Cycle) != 2 {
		t.Fatalf("cycle lengths %d/%d, want 3/2", len(pms[0].Cycle), len(pms[1].Cycle))
	}
}

// TestPostmortemsJoin pins the evidence join: matching is by full
// resource hash and endpoint, cut at the activation's stamp; the tail
// is the participants' last 64 events; salvages render no postmortem;
// only the most recent 128 resolutions are rendered.
func TestPostmortemsJoin(t *testing.T) {
	long := "accounts/0123456789/a" // shares its 16-byte prefix with the next
	other := "accounts/0123456789/b"
	var recs []journal.Record
	ts := int64(0)
	emit := func(kind journal.Kind, txn int64, res string, mode lock.Mode, arg uint64) {
		ts++
		r := journal.Record{Kind: kind, Txn: txn, Mode: uint8(mode), TS: ts, Arg: arg}
		r.SetResource(res)
		recs = append(recs, r)
	}
	emit(journal.KindBegin, 1, "", 0, 0)
	emit(journal.KindOpTag, 1, "", 0, 41)
	emit(journal.KindOpTag, 1, "", 0, 42) // the later tag wins
	emit(journal.KindGrant, 1, long, lock.X, 0)
	emit(journal.KindGrant, 1, other, lock.X, 0) // same prefix, different hash: not evidence
	emit(journal.KindGrant, 9, long, lock.S, 0)  // a bystander on the same resource
	for i := 0; i < 100; i++ {
		emit(journal.KindGrant, 2, "pad", lock.S, 0)
	}
	emit(journal.KindGrant, 2, "y", lock.X, 0)
	emit(journal.KindBlock, 2, long, lock.X, 1)
	emit(journal.KindBlock, 1, "y", lock.X, 1)
	ts++
	cut := ts
	head := journal.Record{Kind: journal.KindVictim, Txn: 2, TS: cut, Aux: 1}
	e1 := journal.Record{Kind: journal.KindCycleEdge, Txn: 1, Arg: 2, TS: cut, Aux: 1}
	e1.SetResource(long)
	e2 := journal.Record{Kind: journal.KindCycleEdge, Txn: 2, Arg: 1, TS: cut, Aux: 1}
	e2.SetResource("y")
	recs = append(recs, journal.Record{Kind: journal.KindDetect, Txn: 1, TS: cut, Aux: 1}, head, e1, e2,
		journal.Record{Kind: journal.KindSalvage, Txn: 5, TS: cut, Aux: 1})
	emit(journal.KindAbort, 2, "", 0, 0)        // after the activation: cut off
	emit(journal.KindGrant, 1, "y", lock.X, 99) // likewise

	pms, incomplete := jview.Postmortems(recs)
	if len(pms) != 1 || incomplete != 0 {
		t.Fatalf("%d postmortems, %d incomplete", len(pms), incomplete)
	}
	pm := pms[0]
	if pm.Victim != 2 || pm.TDR2 || pm.Time.UnixNano() != cut {
		t.Fatalf("postmortem = %+v", pm)
	}
	kinds := func(evs []jview.PostmortemEvent) string {
		s := ""
		for _, ev := range evs {
			s += ev.Kind + ":" + string(rune('0'+ev.Txn)) + " "
		}
		return s
	}
	if got := kinds(pm.Cycle[0].Evidence); got != "grant:1 block:2 " {
		t.Errorf("edge 1→2 evidence = %q", got)
	}
	if pm.Cycle[0].Resource != long[:len(recs[0].Res)]+"…" || pm.Cycle[0].Mode != "NL" {
		t.Errorf("edge 1→2 = %+v", pm.Cycle[0])
	}
	if got := kinds(pm.Cycle[1].Evidence); got != "grant:2 block:1 " {
		t.Errorf("edge 2→1 evidence = %q", got)
	}
	if len(pm.Tail) != postmortemTailCap {
		t.Fatalf("tail has %d events, want the cap %d", len(pm.Tail), postmortemTailCap)
	}
	if last := pm.Tail[len(pm.Tail)-1]; last.Kind != "block" || last.Txn != 1 || last.Depth != 1 {
		t.Errorf("tail ends with %+v, want T1's block on y", last)
	}
	for i := 1; i < len(pm.Tail); i++ {
		if pm.Tail[i].Time.Before(pm.Tail[i-1].Time) {
			t.Fatalf("tail out of order at %d", i)
		}
	}
	if len(pm.OpTags) != 1 || pm.OpTags[1] != 42 {
		t.Errorf("op tags = %v, want T1's latest tag 42", pm.OpTags)
	}
	events, _ := jview.Resolutions(recs)
	if len(events) != 2 || events[1].Kind != "salvage" || events[1].Txn != 5 {
		t.Fatalf("Resolutions = %+v, want the victim then the salvage", events)
	}

	var many []journal.Record
	for seq := uint32(1); seq <= maxPostmortems+7; seq++ {
		many = append(many, activation(seq, int64(seq)*10, []int64{1, 2})...)
	}
	pms, incomplete = jview.Postmortems(many)
	if len(pms) != maxPostmortems || incomplete != 0 || pms[0].Activation != 8 || pms[len(pms)-1].Activation != maxPostmortems+7 {
		t.Fatalf("%d postmortems spanning activations %d..%d", len(pms), pms[0].Activation, pms[len(pms)-1].Activation)
	}
}
