package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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
}

// TestRingConcurrentHammer drives GOMAXPROCS writers into one small
// ring (forcing constant wraparound and slot reuse) while a reader
// drains snapshots, asserting under -race that every surfaced record is
// internally consistent — i.e. no torn event ever escapes the
// commit-word + checksum validation. Each writer encodes a
// self-checking payload: Arg must equal a hash of (Txn, TS).
func TestRingConcurrentHammer(t *testing.T) {
	r := NewRing(64, 0) // small: maximal overwrite pressure
	writers := runtime.GOMAXPROCS(0)
	if writers < 2 {
		writers = 2
	}
	const perWriter = 20000
	sig := func(txn, ts int64) uint64 {
		return checksum(uint64(txn), &[recordWords]uint64{uint64(ts)})
	}
	var stop atomic.Bool
	readerDone := make(chan struct{})
	go func() { // reader: drains snapshots continuously, validating each
		defer close(readerDone)
		for !stop.Load() {
			for _, rec := range r.Snapshot(nil) {
				if rec.Kind != KindGrant {
					t.Errorf("snapshot surfaced record with kind %v", rec.Kind)
					return
				}
				if rec.Arg != sig(rec.Txn, rec.TS) {
					t.Errorf("torn record escaped validation: %+v", rec)
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	wg.Add(writers)
	for wtr := 0; wtr < writers; wtr++ {
		go func(wtr int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				txn := int64(wtr*perWriter + i + 1)
				ts := int64(i + 1)
				r.Emit(&Record{Kind: KindGrant, Txn: txn, TS: ts, Arg: sig(txn, ts)})
			}
		}(wtr)
	}
	wg.Wait()
	stop.Store(true)
	<-readerDone
	if st := r.Stats(); st.Emitted != uint64(writers*perWriter) {
		t.Fatalf("emitted %d, want %d", st.Emitted, writers*perWriter)
	}
	// Quiescent: the ring is full and every retained slot must surface
	// and validate — the newest Cap() records, each self-consistent.
	final := r.Snapshot(nil)
	if len(final) != r.Cap() {
		t.Fatalf("quiescent snapshot surfaced %d records, want the full ring of %d", len(final), r.Cap())
	}
	for _, rec := range final {
		if rec.Arg != sig(rec.Txn, rec.TS) {
			t.Fatalf("quiescent snapshot holds inconsistent record: %+v", rec)
		}
	}
}

func TestBuildTraceShape(t *testing.T) {
	j := New(1, 64)
	j.Control().Emit(&Record{Kind: KindBegin, Txn: 1, TS: 1000})
	g := Record{Kind: KindGrant, Txn: 1, Arg: 5000, TS: 7000, Mode: 5}
	g.SetResource("hot")
	j.Ring(0).Emit(&g)
	j.Control().Emit(&Record{Kind: KindDetect, Txn: 1, Arg: 2000, Aux: 1, TS: 9000})
	v := Record{Kind: KindVictim, Txn: 9, Aux: 1, TS: 9100}
	j.Control().Emit(&v)
	j.Control().Emit(&Record{Kind: KindCommit, Txn: 1, TS: 9500})

	var buf bytes.Buffer
	if err := WriteTrace(&buf, j.Snapshot()); err != nil {
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

func TestAnalyze(t *testing.T) {
	j := New(1, 256)
	emitB := func(txn int64, res string, depth uint64, ts int64) {
		r := Record{Kind: KindBlock, Txn: txn, Arg: depth, TS: ts}
		r.SetResource(res)
		j.Ring(0).Emit(&r)
	}
	emitG := func(txn int64, res string, wait uint64, ts int64) {
		r := Record{Kind: KindGrant, Txn: txn, Arg: wait, TS: ts}
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
	j.Control().Emit(&Record{Kind: KindDetect, Txn: 1, Arg: 500, Aux: 2, TS: 70})
	j.Control().Emit(&Record{Kind: KindVictim, Txn: 2, Aux: 1, TS: 71})
	j.Control().Emit(&Record{Kind: KindReposition, Txn: 3, Aux: 1, TS: 72})

	rep := Analyze(j.Snapshot())
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
