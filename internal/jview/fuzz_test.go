package jview

import (
	"bytes"
	"io"
	"testing"

	"hwtwbg/journal"
)

// FuzzViews feeds arbitrary bytes to journal.Decode and runs every view
// over the records it accepts: Analyze with its text report and SLO
// checks, Postmortems, Resolutions, NearMisses with its text report,
// WriteTrace and Record.String. None may panic, and a dump Decode
// accepts re-encodes to the same bytes. The checked-in corpus holds the
// hwtrace fixture, the bare magic, a truncated record and a dump whose
// second record has mode byte 48.
func FuzzViews(f *testing.F) {
	slos, err := ParseSLOs("p50=1ms,commit:p99=1s,abort:max=1h")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, dump []byte) {
		recs, err := journal.Decode(bytes.NewReader(dump))
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := journal.Encode(&again, recs); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), dump) {
			t.Fatalf("%d records re-encode to %d bytes that differ from the %d decoded", len(recs), again.Len(), len(dump))
		}
		rep := Analyze(recs)
		rep.WriteReport(io.Discard)
		WriteSLOResults(io.Discard, rep.CheckSLOs(slos))
		Postmortems(recs)
		Resolutions(recs)
		NearMisses(recs).WriteReport(io.Discard)
		if err := WriteTrace(io.Discard, recs); err != nil {
			t.Fatal(err)
		}
		for i := range recs {
			_ = recs[i].String()
		}
	})
}
