package journal

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

func TestPackUnpackRoundTrip(t *testing.T) {
	in := Record{
		TS:    time.Now().UnixNano(),
		Txn:   -42,
		Arg:   1<<63 + 7,
		Kind:  KindGrant,
		Mode:  5,
		Shard: 3,
		Flags: FlagConversion,
		Aux:   0xDEADBEEF,
	}
	in.SetResource("accounts/0042")
	var w [recordWords]uint64
	in.pack(&w)
	var out Record
	out.unpack(&w)
	if out != in {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
	if got := out.Resource(); got != "accounts/0042" {
		t.Fatalf("Resource() = %q", got)
	}
}

func TestSetResourceTruncation(t *testing.T) {
	long := "warehouse/district/customer/17"
	var r Record
	r.SetResource(long)
	if r.Flags&FlagTruncated == 0 {
		t.Fatal("long id did not set FlagTruncated")
	}
	if r.RHash != Hash(long) {
		t.Fatal("hash must cover the full id, not the prefix")
	}
	if got, want := r.Resource(), long[:prefixSize]+"…"; got != want {
		t.Fatalf("Resource() = %q, want %q", got, want)
	}
	var short Record
	short.SetResource("r1")
	if short.Flags&FlagTruncated != 0 || short.Resource() != "r1" {
		t.Fatalf("short id: flags=%x res=%q", short.Flags, short.Resource())
	}
}

func TestRingRetainsNewestOnWrap(t *testing.T) {
	r := NewRing(8, 0)
	for i := 0; i < 20; i++ {
		r.Emit(&Record{Kind: KindCommit, Txn: int64(i), TS: int64(i + 1)})
	}
	recs := r.Snapshot(nil)
	if len(recs) != 8 {
		t.Fatalf("retained %d records, want 8", len(recs))
	}
	for i, rec := range recs {
		if rec.Txn != int64(12+i) {
			t.Fatalf("record %d is txn %d, want %d (newest 8 retained in order)", i, rec.Txn, 12+i)
		}
	}
	st := r.Stats()
	if st.Emitted != 20 || st.Overwritten != 12 || st.Cap != 8 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestJournalSnapshotMergesByTime(t *testing.T) {
	j := New(2, 8)
	j.Ring(0).Emit(&Record{Kind: KindGrant, Txn: 1, TS: 30})
	j.Ring(1).Emit(&Record{Kind: KindGrant, Txn: 2, TS: 10})
	j.Control().Emit(&Record{Kind: KindBegin, Txn: 3, TS: 20})
	recs := j.Snapshot()
	if len(recs) != 3 {
		t.Fatalf("merged %d records, want 3", len(recs))
	}
	if recs[0].Txn != 2 || recs[1].Txn != 3 || recs[2].Txn != 1 {
		t.Fatalf("merge order wrong: %v %v %v", recs[0], recs[1], recs[2])
	}
}

// TestJournalSnapshotTiesKeepRingThenSeqOrder pins the merge order
// where timestamps collide: by ring index, then each ring's own emit
// order — a detector activation stamps all its control-ring records
// alike, and the readers group them by that order.
func TestJournalSnapshotTiesKeepRingThenSeqOrder(t *testing.T) {
	j := New(2, 8)
	// Interleave the emits so neither ring order nor wall order matches
	// the expected (TS, ring, seq) order by accident.
	for seq := int64(0); seq < 3; seq++ {
		for _, ring := range []int{1, 0} {
			for _, ts := range []int64{20, 10} {
				j.Ring(ring).Emit(&Record{Kind: KindGrant, TS: ts, Txn: int64(ring), Arg: uint64(seq)})
			}
		}
	}
	recs := j.Snapshot()
	if len(recs) != 12 || cap(recs) != 12 {
		t.Fatalf("len %d cap %d, want 12 retained records in a slice sized for them", len(recs), cap(recs))
	}
	i := 0
	for _, ts := range []int64{10, 20} {
		for ring := int64(0); ring < 2; ring++ {
			for seq := uint64(0); seq < 3; seq++ {
				if r := recs[i]; r.TS != ts || r.Txn != ring || r.Arg != seq || int64(r.Shard) != ring {
					t.Fatalf("recs[%d] = ts %d ring %d seq %d, want %d/%d/%d", i, r.TS, r.Txn, r.Arg, ts, ring, seq)
				}
				i++
			}
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	j := New(1, 16)
	for i := 0; i < 10; i++ {
		rec := Record{Kind: KindBlock, Txn: int64(i), Arg: uint64(i * i), Mode: 2}
		rec.SetResource(fmt.Sprintf("res/%d", i))
		j.Ring(0).Emit(&rec)
	}
	recs := j.Snapshot()
	var buf bytes.Buffer
	if err := Encode(&buf, recs); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(back), len(recs))
	}
	for i := range back {
		if back[i] != recs[i] {
			t.Fatalf("record %d: %+v != %+v", i, back[i], recs[i])
		}
	}
	if _, err := Decode(bytes.NewReader([]byte("not a journal dump....."))); err == nil {
		t.Fatal("bad magic accepted")
	}
	// A mode outside lock.Mode is refused, and the error names the record.
	buf.Reset()
	recs[1].Mode = 48
	if err := Encode(&buf, recs); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(&buf); err == nil || !strings.Contains(err.Error(), "dump record 1: mode 48") {
		t.Fatalf("bad mode: err %v", err)
	}
}

func TestRecordTextRoundTrip(t *testing.T) {
	in := Record{Kind: KindVictim, Txn: 7, Aux: 3, TS: 12345}
	in.SetResource("R2")
	text, err := in.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	var out Record
	if err := out.UnmarshalText(text); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("text round trip: %+v != %+v", out, in)
	}
	if err := out.UnmarshalText([]byte("@@@not base64@@@")); err == nil {
		t.Fatal("bad base64 accepted")
	}
	if err := out.UnmarshalText([]byte("AAAA")); err == nil {
		t.Fatal("short record accepted")
	}
	// Lines that decode to more than a record are refused, not decoded
	// past the buffer: one of full length without padding, and one
	// longer than any record line.
	for _, n := range []int{len(text), len(text) + 1, 4096} {
		if err := out.UnmarshalText(bytes.Repeat([]byte("0"), n)); err == nil {
			t.Fatalf("%d-character record line accepted", n)
		}
	}
	// A well-formed line whose mode is not a lock mode is refused, and
	// the record it was to fill is left as it was.
	bad := in
	bad.Mode = 48
	if text, err = bad.MarshalText(); err != nil {
		t.Fatal(err)
	}
	if err := out.UnmarshalText(text); err == nil || !strings.Contains(err.Error(), "mode 48") || out != in {
		t.Fatalf("bad mode: err %v, record %+v", err, out)
	}
}

// TestLateWriterKeepsNewerLap: a writer that claimed a sequence but
// reaches its slot only after a writer one lap ahead has published
// there drops its record instead of overwriting the newer one; the
// loss is the one Overwritten already counts.
func TestLateWriterKeepsNewerLap(t *testing.T) {
	r := NewRing(8, 0)
	late := r.at.claim() // seq 0, slot 0
	for i := 1; i <= 8; i++ {
		r.Emit(&Record{Kind: KindCommit, Txn: int64(i)}) // seq 8 laps onto slot 0
	}
	var w [recordWords]uint64
	(&Record{Kind: KindAbort, Txn: 99}).pack(&w)
	r.slots[late&r.mask].write(late, &w)
	recs := r.Snapshot(nil)
	if len(recs) != 8 || recs[7].Txn != 8 {
		t.Fatalf("snapshot = %d records ending with T%d, want 8 ending with T8", len(recs), recs[len(recs)-1].Txn)
	}
	if st := r.Stats(); st.Emitted != 9 || st.Overwritten != 1 {
		t.Fatalf("stats = %+v, want 9 emitted, 1 overwritten", st)
	}
}

// TestSlotIsOneCacheLine pins the slot layout the ring's cost rests on:
// one lock word plus the seven payload words fill exactly one 64-byte
// line, and a ring's slots start on a line boundary.
func TestSlotIsOneCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(slot{}); n != 64 {
		t.Fatalf("slot is %d bytes, want 64", n)
	}
	for _, size := range []int{8, 64, 1000, 4096} {
		r := NewRing(size, 0)
		if a := uintptr(unsafe.Pointer(&r.slots[0])) % 64; a != 0 {
			t.Fatalf("ring of %d slots starts %d bytes into a cache line", r.Cap(), a)
		}
	}
}

// hammerRec builds a self-checking record: every one of its seven
// packed words is a different function of (writer, i), so a copy mixing
// words of two records fails hammerOK.
func hammerRec(writer, i int) Record {
	k := uint64(writer)<<32 | uint64(i)
	r := Record{
		TS:    int64(i),
		Txn:   int64(writer),
		Arg:   k * 0x9E3779B97F4A7C15,
		RHash: ^k,
		Kind:  KindGrant,
		Mode:  uint8(k),
		Flags: uint8(k >> 8),
		Aux:   uint32(k ^ k>>32),
	}
	putLeWord(r.Res[0:8], k+1)
	putLeWord(r.Res[8:16], k*3)
	return r
}

func hammerOK(rec Record) bool {
	want := hammerRec(int(rec.Txn), int(rec.TS))
	want.Shard = rec.Shard
	return rec == want
}

// TestRingConcurrentHammer laps several writers around an 8-slot ring
// — constant slot reuse, writers of different laps meeting on one slot
// — while one reader drains snapshots and another tails the ring with
// ReadFrom. Under -race it asserts that every surfaced record is
// whole (the self-checking payload of hammerRec) and that ReadFrom
// delivers each writer's records in emit order without duplicates,
// accounting for every sequence it passes as delivered or lost.
func TestRingConcurrentHammer(t *testing.T) {
	r := NewRing(8, 0)
	writers := max(runtime.GOMAXPROCS(0), 4)
	const perWriter = 20000
	var stop atomic.Bool
	var readers sync.WaitGroup
	readers.Add(2)
	go func() { // snapshot reader
		defer readers.Done()
		for !stop.Load() {
			for _, rec := range r.Snapshot(nil) {
				if !hammerOK(rec) {
					t.Errorf("snapshot surfaced an inconsistent record: %+v", rec)
					return
				}
			}
		}
	}()
	var tailed, tailLost, tailNext uint64
	go func() { // tail consumer
		defer readers.Done()
		last := make([]int64, writers)
		for i := range last {
			last[i] = -1
		}
		var seq uint64
		var buf []Record
		for done := false; !done; {
			done = stop.Load() // one more full drain after the writers finish
			for {
				recs, next, lost := r.ReadFrom(seq, 0, buf[:0])
				buf = recs
				if next == seq {
					break
				}
				for _, rec := range recs {
					if !hammerOK(rec) {
						t.Errorf("ReadFrom delivered an inconsistent record: %+v", rec)
						return
					}
					if rec.TS <= last[rec.Txn] {
						t.Errorf("ReadFrom delivered writer %d's record %d after its record %d", rec.Txn, rec.TS, last[rec.Txn])
						return
					}
					last[rec.Txn] = rec.TS
				}
				tailed += uint64(len(recs))
				tailLost += lost
				seq = next
			}
		}
		tailNext = seq
	}()
	var wg sync.WaitGroup
	wg.Add(writers)
	for wtr := 0; wtr < writers; wtr++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rec := hammerRec(wtr, i)
				r.Emit(&rec)
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	readers.Wait()
	if t.Failed() {
		return
	}
	total := uint64(writers * perWriter)
	if st := r.Stats(); st.Emitted != total {
		t.Fatalf("emitted %d, want %d", st.Emitted, total)
	}
	if tailNext != total || tailed+tailLost != total {
		t.Fatalf("tail ended at %d with %d delivered + %d lost, want all %d sequences accounted for", tailNext, tailed, tailLost, total)
	}
	t.Logf("%d writers, %d records: tail delivered %d, lost %d", writers, total, tailed, tailLost)
	// Quiescent: every slot holds the newest lap of its class, so the
	// snapshot surfaces the full ring, each record whole.
	final := r.Snapshot(nil)
	if len(final) != r.Cap() {
		t.Fatalf("quiescent snapshot surfaced %d records, want the full ring of %d", len(final), r.Cap())
	}
	for _, rec := range final {
		if !hammerOK(rec) {
			t.Fatalf("quiescent snapshot holds inconsistent record: %+v", rec)
		}
	}
}

func BenchmarkRingEmit(b *testing.B) {
	r := NewRing(4096, 0)
	rec := Record{Kind: KindGrant, Txn: 7, Arg: 123, TS: 1}
	rec.SetResource("bench/resource")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.TS = int64(i + 1)
		r.Emit(&rec)
	}
}

func BenchmarkRingEmitParallel(b *testing.B) {
	r := NewRing(4096, 0)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		rec := Record{Kind: KindGrant, Txn: 7, Arg: 123, TS: 1}
		rec.SetResource("bench/resource")
		for pb.Next() {
			r.Emit(&rec)
		}
	})
}
