package jview

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"hwtwbg/journal"
)

// Perfetto / Chrome trace-event export. The JSON object format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU)
// loads directly into ui.perfetto.dev or chrome://tracing: each
// transaction is a track (tid) in the "transactions" process, blocked
// waits render as complete ("X") spans, lifecycle points and detector
// resolutions as instants ("i"), and detector activations as spans on
// their own "detector" process track.

// traceEvent is one Chrome trace-event entry.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int64          `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

// trace is the exported document ({"traceEvents": [...]}).
type trace struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// Trace process ids.
const (
	pidTransactions = 1
	pidDetector     = 2
)

// buildTrace converts journal records into trace events. Timestamps
// are rebased to the earliest record so the trace starts near zero.
func buildTrace(recs []journal.Record) trace {
	tr := trace{DisplayTimeUnit: "ms", TraceEvents: []traceEvent{}}
	if len(recs) == 0 {
		return tr
	}
	base := recs[0].TS
	for _, r := range recs {
		if r.TS < base {
			base = r.TS
		}
	}
	us := func(ns int64) float64 { return float64(ns-base) / 1e3 }

	tids := map[int64]bool{}
	add := func(e traceEvent) { tr.TraceEvents = append(tr.TraceEvents, e) }
	for _, r := range recs {
		switch r.Kind {
		case journal.KindBegin, journal.KindRequest, journal.KindBlock, journal.KindGrant, journal.KindAbort, journal.KindCommit:
			tids[r.Txn] = true
		}
		switch r.Kind {
		case journal.KindGrant:
			name := fmt.Sprintf("%s %s", r.Resource(), r.ModeString())
			if r.Arg > 0 {
				// The grant record carries its wait, so the blocked span
				// reconstructs without pairing block/grant records (the
				// block record may have been overwritten).
				add(traceEvent{Name: "wait " + name, Ph: "X", TS: us(r.TS - int64(r.Arg)), Dur: float64(r.Arg) / 1e3,
					PID: pidTransactions, TID: r.Txn, Args: map[string]any{"wait_ns": r.Arg}})
			} else {
				add(traceEvent{Name: "grant " + name, Ph: "i", TS: us(r.TS), PID: pidTransactions, TID: r.Txn, S: "t"})
			}
		case journal.KindBegin:
			add(traceEvent{Name: "begin", Ph: "i", TS: us(r.TS), PID: pidTransactions, TID: r.Txn, S: "t"})
		case journal.KindCommit:
			add(traceEvent{Name: "commit", Ph: "i", TS: us(r.TS), PID: pidTransactions, TID: r.Txn, S: "t"})
		case journal.KindAbort:
			add(traceEvent{Name: "abort", Ph: "i", TS: us(r.TS), PID: pidTransactions, TID: r.Txn, S: "t"})
		case journal.KindDetect:
			// Stamped where the activation began to act, so the slice
			// of one that resolved something leads its true span by the
			// acting time; the markers and wake-ups line up with its end.
			add(traceEvent{Name: fmt.Sprintf("activation %d", r.Txn), Ph: "X",
				TS: us(r.TS - int64(r.Arg)), Dur: float64(r.Arg) / 1e3,
				PID: pidDetector, TID: 0, Args: map[string]any{"cycles": r.Aux}})
		case journal.KindVictim:
			add(traceEvent{Name: fmt.Sprintf("victim T%d", r.Txn), Ph: "i", TS: us(r.TS), PID: pidDetector, TID: 0, S: "p"})
		case journal.KindReposition:
			add(traceEvent{Name: fmt.Sprintf("reposition %s at T%d", r.Resource(), r.Txn), Ph: "i", TS: us(r.TS), PID: pidDetector, TID: 0, S: "p"})
		case journal.KindSalvage:
			add(traceEvent{Name: fmt.Sprintf("salvage T%d", r.Txn), Ph: "i", TS: us(r.TS), PID: pidDetector, TID: 0, S: "p"})
		}
	}

	// Name the tracks: sorted so the export is deterministic.
	var ids []int64
	for id := range tids {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	meta := []traceEvent{
		{Name: "process_name", Ph: "M", PID: pidTransactions, TID: 0, Args: map[string]any{"name": "transactions"}},
		{Name: "process_name", Ph: "M", PID: pidDetector, TID: 0, Args: map[string]any{"name": "detector"}},
		{Name: "thread_name", Ph: "M", PID: pidDetector, TID: 0, Args: map[string]any{"name": "activations"}},
	}
	for _, id := range ids {
		meta = append(meta, traceEvent{Name: "thread_name", Ph: "M", PID: pidTransactions, TID: id,
			Args: map[string]any{"name": fmt.Sprintf("txn %d", id)}})
	}
	tr.TraceEvents = append(meta, tr.TraceEvents...)
	return tr
}

// WriteTrace renders records as a Chrome trace-event / Perfetto JSON
// document.
func WriteTrace(w io.Writer, recs []journal.Record) error {
	enc := json.NewEncoder(w)
	return enc.Encode(buildTrace(recs))
}
