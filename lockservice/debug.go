package lockservice

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"

	"hwtwbg"
	"hwtwbg/journal"
)

// DebugHandler returns an http.Handler exposing the lock manager's
// observability surface, suitable for a loopback debug listener:
//
//	/            index linking everything below
//	/metrics     Prometheus text exposition (counters, histograms,
//	             detector phase breakdown)
//	/snapshot    full MetricsSnapshot as JSON
//	/activations recent detector activation reports as JSON
//	/costmodel   scheduling cost-model state as JSON: deadlock formation
//	             rate, detection and persistence cost estimates, and the
//	             derived cost-minimizing detection period
//	/nearmiss    predictive near-miss analysis over the flight recorder:
//	             cross-transaction lock-order reversals as JSON
//	/trace.json  flight-recorder snapshot as Chrome trace-event JSON —
//	             load into ui.perfetto.dev or chrome://tracing
//	/journal/stream
//	             flight recorder live, as server-sent events: the same
//	             cursor-based ring tail as the wire TAIL verb ("batch",
//	             "heartbeat" and "end" events with JSON payloads); query
//	             from=oldest|now, max=<n>, hb=<duration>
//	/journal.bin flight-recorder snapshot in the binary dump format;
//	             cmd/hwtrace replays it offline, and its postmortems
//	             command rebuilds each resolved deadlock from it
//	/twbg.dot    the current H/W-TWBG in Graphviz format (stop-the-world)
//	/locktable   the lock table in the paper's notation (stop-the-world)
//	/debug/vars  expvar (process-global registry)
//	/debug/pprof profiling endpoints
//
// The flight-recorder endpoints (/trace.json, /journal.bin, /nearmiss,
// /journal/stream) answer 404 when the manager's journal is disabled
// (hwtwbg.Options.JournalSize < 0).
//
// The stop-the-world endpoints (/twbg.dot, /locktable) pause every
// shard exactly like a detector activation; keep them off hot
// monitoring loops.
func DebugHandler(lm *hwtwbg.Manager) http.Handler {
	mux := http.NewServeMux()
	// journaled serves a flight-recorder endpoint, or 404 without one.
	journaled := func(path string, h func(http.ResponseWriter, *journal.Journal)) {
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			if jr := lm.Journal(); jr != nil {
				h(w, jr)
			} else {
				http.NotFound(w, r)
			}
		})
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, `<html><head><title>lockd debug</title></head><body>
<h1>lockd debug</h1><ul>
<li><a href="/metrics">/metrics</a> — Prometheus text exposition</li>
<li><a href="/snapshot">/snapshot</a> — metrics snapshot (JSON)</li>
<li><a href="/activations">/activations</a> — detector activation reports (JSON)</li>
<li><a href="/costmodel">/costmodel</a> — scheduling cost-model state (JSON)</li>
<li><a href="/nearmiss">/nearmiss</a> — predictive lock-order reversal analysis (JSON)</li>
<li><a href="/trace.json">/trace.json</a> — flight recorder as Perfetto/Chrome trace JSON</li>
<li><a href="/journal/stream">/journal/stream</a> — flight recorder live (server-sent events)</li>
<li><a href="/journal.bin">/journal.bin</a> — flight recorder, binary dump (for cmd/hwtrace)</li>
<li><a href="/twbg.dot">/twbg.dot</a> — H/W-TWBG in Graphviz format</li>
<li><a href="/locktable">/locktable</a> — lock table, paper notation</li>
<li><a href="/debug/vars">/debug/vars</a> — expvar</li>
<li><a href="/debug/pprof/">/debug/pprof/</a> — profiling</li>
</ul></body></html>
`)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		lm.WritePrometheus(w)
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, lm.MetricsSnapshot())
	})
	mux.HandleFunc("/activations", func(w http.ResponseWriter, r *http.Request) {
		reports, total := lm.Activations()
		writeJSON(w, map[string]any{"total": total, "activations": reports})
	})
	mux.HandleFunc("/costmodel", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, lm.CostModel())
	})
	journaled("/nearmiss", func(w http.ResponseWriter, jr *journal.Journal) {
		writeJSON(w, journal.NearMisses(jr.Snapshot()))
	})
	mux.HandleFunc("/journal/stream", func(w http.ResponseWriter, r *http.Request) {
		serveJournalStream(lm, w, r)
	})
	journaled("/trace.json", func(w http.ResponseWriter, jr *journal.Journal) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		journal.WriteTrace(w, jr.Snapshot())
	})
	journaled("/journal.bin", func(w http.ResponseWriter, jr *journal.Journal) {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition", `attachment; filename="journal.bin"`)
		journal.Encode(w, jr.Snapshot())
	})
	mux.HandleFunc("/twbg.dot", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/vnd.graphviz; charset=utf-8")
		fmt.Fprint(w, lm.DOT())
	})
	mux.HandleFunc("/locktable", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, lm.Snapshot())
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
