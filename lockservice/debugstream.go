package lockservice

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"hwtwbg"
	"hwtwbg/journal"
)

// /journal/stream: the flight recorder as server-sent events — the same
// cursor-based ring tail as the wire TAIL verb, but over HTTP so a
// browser EventSource or curl can watch live without speaking the lock
// protocol. Records render as journal.RecordView JSON.

// sseBatch is the "batch" event payload: one ring's run of records plus
// the tail contract's explicit loss accounting.
type sseBatch struct {
	Ring    int                  `json:"ring"`
	Next    uint64               `json:"next"`
	Lost    uint64               `json:"lost,omitempty"`
	Records []journal.RecordView `json:"records"`
}

// writeSSE emits one server-sent event with a JSON data line.
func writeSSE(w http.ResponseWriter, event string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := w.Write([]byte("event: " + event + "\ndata: ")); err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return err
	}
	_, err = w.Write([]byte("\n\n"))
	return err
}

// serveJournalStream handles GET /journal/stream. Query parameters:
// from=oldest|now (default oldest), max=<n> (end after n records;
// absent or 0 streams until the client disconnects), hb=<duration>
// (heartbeat cadence, default 1s). 404 when the journal is disabled.
func serveJournalStream(lm *hwtwbg.Manager, w http.ResponseWriter, r *http.Request) {
	jr := lm.Journal()
	if jr == nil {
		http.NotFound(w, r)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	q := r.URL.Query()
	fromOldest := true
	switch q.Get("from") {
	case "", "oldest":
	case "now":
		fromOldest = false
	default:
		http.Error(w, "bad from= (want oldest or now)", http.StatusBadRequest)
		return
	}
	t := ringTail{lm: lm, jr: jr, hb: defaultTailHeartbeat}
	if v := q.Get("max"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "bad max= count", http.StatusBadRequest)
			return
		}
		t.max = n
	}
	if v := q.Get("hb"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			http.Error(w, "bad hb= duration", http.StatusBadRequest)
			return
		}
		t.hb = d
	}
	t.cursors = startCursors(jr, fromOldest)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	t.run(sseFrames{w: w, fl: fl, ctx: r.Context()})
}

// sseFrames frames the ring sweep as server-sent events.
type sseFrames struct {
	w   http.ResponseWriter
	fl  http.Flusher
	ctx context.Context
}

func (f sseFrames) batch(ring int, recs []journal.Record, next, lost uint64) error {
	b := sseBatch{Ring: ring, Next: next, Lost: lost, Records: make([]journal.RecordView, len(recs))}
	for j := range recs {
		b.Records[j] = recs[j].View()
	}
	return writeSSE(f.w, "batch", b)
}

func (f sseFrames) heartbeat(b *beat) error {
	return writeSSE(f.w, "heartbeat", b.view())
}

func (f sseFrames) end(records int) error {
	err := writeSSE(f.w, "end", map[string]int{"records": records})
	f.fl.Flush()
	return err
}

func (f sseFrames) flush() error {
	f.fl.Flush()
	return nil
}

func (f sseFrames) stopped() bool { return f.ctx.Err() != nil }
