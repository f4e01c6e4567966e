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
//	/journal.bin flight-recorder snapshot in the binary dump format;
//	             cmd/hwtrace replays it offline, and its postmortems
//	             command rebuilds each resolved deadlock from it
//	/twbg.dot    the current H/W-TWBG in Graphviz format (stop-the-world)
//	/locktable   the lock table in the paper's notation (stop-the-world)
//	/debug/vars  expvar (process-global registry)
//	/debug/pprof profiling endpoints
//
// The flight-recorder endpoint (/journal.bin) answers 404 when the
// manager's journal is disabled (hwtwbg.Options.JournalSize < 0). Its
// rendered views (report, near misses, Perfetto JSON) are cmd/hwtrace's
// over the dump, and its live stream is the wire TAIL verb.
//
// The stop-the-world endpoints (/twbg.dot, /locktable) pause every
// shard exactly like a detector activation; keep them off hot
// monitoring loops.
func DebugHandler(lm *hwtwbg.Manager) http.Handler {
	mux := http.NewServeMux()
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
	mux.HandleFunc("/journal.bin", func(w http.ResponseWriter, r *http.Request) {
		jr := lm.Journal()
		if jr == nil {
			http.NotFound(w, r)
			return
		}
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
