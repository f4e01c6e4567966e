package journal

import (
	"bytes"
	"testing"
)

// mkRec builds a distinguishable record for cursor tests; Arg carries
// the emit index so delivery order and gaps are checkable.
func mkRec(i int) Record {
	r := Record{TS: int64(1000 + i), Txn: int64(i), Arg: uint64(i), Kind: KindGrant, Mode: 4}
	r.SetResource("res")
	return r
}

func emitN(r *Ring, from, n int) {
	for i := from; i < from+n; i++ {
		rec := mkRec(i)
		r.Emit(&rec)
	}
}

func TestReadFromDeliversAndResumes(t *testing.T) {
	r := NewRing(8, 0)
	emitN(r, 0, 5)
	recs, next, lost := r.ReadFrom(0, 0, nil)
	if len(recs) != 5 || next != 5 || lost != 0 {
		t.Fatalf("ReadFrom(0) = %d recs next=%d lost=%d, want 5/5/0", len(recs), next, lost)
	}
	for i, rec := range recs {
		if rec.Arg != uint64(i) {
			t.Fatalf("record %d has Arg=%d, want %d", i, rec.Arg, i)
		}
	}
	// Nothing new: the cursor holds still and re-delivers nothing.
	recs, next2, lost := r.ReadFrom(next, 0, nil)
	if len(recs) != 0 || next2 != next || lost != 0 {
		t.Fatalf("idle ReadFrom = %d recs next=%d lost=%d, want 0/%d/0", len(recs), next2, lost, next)
	}
	// Resume picks up exactly the records emitted since.
	emitN(r, 5, 3)
	recs, next, lost = r.ReadFrom(next, 0, nil)
	if len(recs) != 3 || next != 8 || lost != 0 {
		t.Fatalf("resumed ReadFrom = %d recs next=%d lost=%d, want 3/8/0", len(recs), next, lost)
	}
	if recs[0].Arg != 5 || recs[2].Arg != 7 {
		t.Fatalf("resumed records are %d..%d, want 5..7", recs[0].Arg, recs[2].Arg)
	}
}

func TestReadFromMaxBounds(t *testing.T) {
	r := NewRing(8, 0)
	emitN(r, 0, 6)
	recs, next, lost := r.ReadFrom(0, 4, nil)
	if len(recs) != 4 || next != 4 || lost != 0 {
		t.Fatalf("bounded ReadFrom = %d recs next=%d lost=%d, want 4/4/0", len(recs), next, lost)
	}
	recs, next, _ = r.ReadFrom(next, 4, nil)
	if len(recs) != 2 || next != 6 {
		t.Fatalf("second bounded ReadFrom = %d recs next=%d, want 2/6", len(recs), next)
	}
}

func TestReadFromResumeAfterWraparound(t *testing.T) {
	r := NewRing(8, 0) // cap 8
	emitN(r, 0, 4)
	_, next, lost := r.ReadFrom(0, 0, nil)
	if next != 4 || lost != 0 {
		t.Fatalf("first read: next=%d lost=%d, want 4/0", next, lost)
	}
	// The consumer goes away; 12 more records overwrite seqs 4..7.
	emitN(r, 4, 12) // head = 16, oldest = 8
	recs, next, lost := r.ReadFrom(next, 0, nil)
	if lost != 4 {
		t.Fatalf("lag after wraparound: lost=%d, want 4 (seqs 4..7 overwritten)", lost)
	}
	if len(recs) != 8 || next != 16 {
		t.Fatalf("resume after wraparound = %d recs next=%d, want 8/16", len(recs), next)
	}
	if recs[0].Arg != 8 || recs[7].Arg != 15 {
		t.Fatalf("resumed records are %d..%d, want 8..15", recs[0].Arg, recs[7].Arg)
	}
}

func TestReadFromCountsFullOverwriteAsLost(t *testing.T) {
	r := NewRing(8, 0)
	emitN(r, 0, 20) // oldest = 12
	recs, next, lost := r.ReadFrom(0, 0, nil)
	if lost != 12 || len(recs) != 8 || next != 20 {
		t.Fatalf("ReadFrom(0) over wrapped ring = %d recs next=%d lost=%d, want 8/20/12", len(recs), next, lost)
	}
	// Every sequence in [0, next) is accounted for: delivered or lost.
	if uint64(len(recs))+lost != next {
		t.Fatalf("accounting broken: %d delivered + %d lost != next %d", len(recs), lost, next)
	}
}

func TestReadFromStopsAtInFlightSlot(t *testing.T) {
	r := NewRing(8, 0)
	emitN(r, 0, 3)
	// A writer claims seq 3 but has not locked its slot yet; a later
	// writer has already published seq 4.
	claimed := r.at.claim()
	if claimed != 3 {
		t.Fatalf("claimed seq %d, want 3", claimed)
	}
	emitN(r, 4, 1) // publishes seq 4
	recs, next, lost := r.ReadFrom(0, 0, nil)
	if len(recs) != 3 || next != 3 || lost != 0 {
		t.Fatalf("read across claimed slot = %d recs next=%d lost=%d, want stop at 3 with 3/3/0", len(recs), next, lost)
	}
	// The writer now holds the slot's lock word, mid-copy: the read
	// still stops there rather than copy a half-written record.
	s := &r.slots[claimed&r.mask]
	old := s.state.lock()
	recs, next, lost = r.ReadFrom(next, 0, nil)
	if len(recs) != 0 || next != 3 || lost != 0 {
		t.Fatalf("read at locked slot = %d recs next=%d lost=%d, want 0/3/0", len(recs), next, lost)
	}
	if got := r.Snapshot(nil); len(got) != 4 {
		t.Fatalf("snapshot with one slot locked surfaced %d records, want the 4 others", len(got))
	}
	// The writer publishes; the stalled cursor now drains both the late
	// record and the one after it — no gap, no loss.
	s.state.unlock(old)
	rec := mkRec(3)
	rec.Shard = 0
	var w [recordWords]uint64
	rec.pack(&w)
	s.write(claimed, &w)
	recs, next, lost = r.ReadFrom(next, 0, nil)
	if len(recs) != 2 || next != 5 || lost != 0 {
		t.Fatalf("after publish = %d recs next=%d lost=%d, want 2/5/0", len(recs), next, lost)
	}
	if recs[0].Arg != 3 || recs[1].Arg != 4 {
		t.Fatalf("drained records are %d,%d, want 3,4", recs[0].Arg, recs[1].Arg)
	}
}

func TestHeadAndOldest(t *testing.T) {
	r := NewRing(8, 0)
	if r.Head() != 0 || r.Oldest() != 0 {
		t.Fatalf("empty ring: Head=%d Oldest=%d, want 0/0", r.Head(), r.Oldest())
	}
	emitN(r, 0, 3)
	if r.Head() != 3 || r.Oldest() != 0 {
		t.Fatalf("after 3 emits: Head=%d Oldest=%d, want 3/0", r.Head(), r.Oldest())
	}
	emitN(r, 3, 10) // 13 total into cap 8
	if r.Head() != 13 || r.Oldest() != 5 {
		t.Fatalf("after wrap: Head=%d Oldest=%d, want 13/5", r.Head(), r.Oldest())
	}
}

// TestStreamedFormatMatchesDump proves the TAIL wire format (per-record
// base64 MarshalText lines) and the HWJRNL01 dump decode byte-identical:
// a record carried over the live stream packs to exactly the same seven
// words as the same record read back from a binary dump.
func TestStreamedFormatMatchesDump(t *testing.T) {
	recs := []Record{
		mkRec(0),
		{TS: 42, Txn: -7, Arg: 1 << 63, Kind: KindOpTag, Shard: 3},
		{TS: 99, Txn: 5, Arg: 12345, Kind: KindBlock, Mode: 2, Aux: 7, Flags: FlagConversion | FlagTry},
	}
	recs[2].SetResource("a-resource-id-longer-than-the-inline-prefix")

	// Dump path: HWJRNL01 encode/decode.
	var dump bytes.Buffer
	if err := Encode(&dump, recs); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	fromDump, err := Decode(&dump)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}

	// Stream path: the TAIL batch line format.
	fromStream := make([]Record, len(recs))
	for i := range recs {
		txt, err := recs[i].MarshalText()
		if err != nil {
			t.Fatalf("MarshalText(%d): %v", i, err)
		}
		if err := fromStream[i].UnmarshalText(txt); err != nil {
			t.Fatalf("UnmarshalText(%d): %v", i, err)
		}
	}

	if len(fromDump) != len(recs) {
		t.Fatalf("dump decoded %d records, want %d", len(fromDump), len(recs))
	}
	for i := range recs {
		var a, b, c [recordWords]uint64
		recs[i].pack(&a)
		fromDump[i].pack(&b)
		fromStream[i].pack(&c)
		if a != b {
			t.Fatalf("record %d: dump round trip not byte-identical: %x vs %x", i, a, b)
		}
		if a != c {
			t.Fatalf("record %d: stream round trip not byte-identical: %x vs %x", i, a, c)
		}
	}
}
