package lockservice

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"hwtwbg"
)

// debugManager builds a manager with one resolved deadlock and one held
// lock, so every endpoint has something to show.
func debugManager(t *testing.T) *hwtwbg.Manager {
	t.Helper()
	lm := hwtwbg.Open(hwtwbg.Options{})
	t.Cleanup(func() { lm.Close() })
	ctx := context.Background()
	a, b := lm.Begin(), lm.Begin()
	if err := a.Lock(ctx, "x", hwtwbg.X); err != nil {
		t.Fatal(err)
	}
	if err := b.Lock(ctx, "y", hwtwbg.X); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	go func() { errs <- a.Lock(ctx, "y", hwtwbg.X) }()
	go func() { errs <- b.Lock(ctx, "x", hwtwbg.X) }()
	for !lm.Blocked(a.ID()) || !lm.Blocked(b.ID()) {
		runtime.Gosched()
	}
	if st := lm.Detect(); st.Aborted != 1 {
		t.Fatalf("aborted %d, want 1", st.Aborted)
	}
	<-errs
	<-errs
	// Leave the survivor holding its locks so /twbg.dot and /locktable
	// render live state; Close cleans up.
	return lm
}

func get(t *testing.T, h *httptest.Server, path string) (string, string) {
	t.Helper()
	resp, err := h.Client().Get(h.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, sb.String())
	}
	return sb.String(), resp.Header.Get("Content-Type")
}

func TestDebugHandlerMetrics(t *testing.T) {
	lm := debugManager(t)
	srv := httptest.NewServer(DebugHandler(lm))
	defer srv.Close()

	body, ctype := get(t, srv, "/metrics")
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Fatalf("content type %q", ctype)
	}
	for _, want := range []string{
		"# TYPE hwtwbg_lock_wait_seconds histogram",
		"hwtwbg_lock_wait_seconds_bucket{le=\"+Inf\"}",
		"hwtwbg_detector_phase_seconds_total{phase=\"build\"}",
		"hwtwbg_detector_phase_seconds_total{phase=\"search\"}",
		"hwtwbg_detector_runs_total 1",
		"hwtwbg_detector_victims_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestDebugHandlerDOTAndLockTable(t *testing.T) {
	lm := debugManager(t)
	srv := httptest.NewServer(DebugHandler(lm))
	defer srv.Close()

	dot, ctype := get(t, srv, "/twbg.dot")
	if !strings.Contains(dot, "digraph HWTWBG") {
		t.Fatalf("/twbg.dot = %q", dot)
	}
	if !strings.Contains(ctype, "graphviz") {
		t.Errorf("content type %q", ctype)
	}
	table, _ := get(t, srv, "/locktable")
	if table == "" {
		t.Error("/locktable empty despite held locks")
	}
}

// TestDebugHandlerDeterministic pins the hwlint nondeterministic-range
// rule's end-to-end promise: over an unchanged lock table, repeated
// fetches of the rendered endpoints are byte-identical — no map
// iteration order leaks into /locktable or /twbg.dot output.
func TestDebugHandlerDeterministic(t *testing.T) {
	lm := debugManager(t)
	srv := httptest.NewServer(DebugHandler(lm))
	defer srv.Close()

	for _, path := range []string{"/locktable", "/twbg.dot"} {
		first, _ := get(t, srv, path)
		for i := 0; i < 5; i++ {
			if again, _ := get(t, srv, path); again != first {
				t.Fatalf("%s rerun %d differs:\nfirst:\n%s\nagain:\n%s", path, i, first, again)
			}
		}
	}
}

func TestDebugHandlerJSONEndpoints(t *testing.T) {
	lm := debugManager(t)
	srv := httptest.NewServer(DebugHandler(lm))
	defer srv.Close()

	body, ctype := get(t, srv, "/snapshot")
	if !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("content type %q", ctype)
	}
	var snap hwtwbg.MetricsSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/snapshot: %v", err)
	}
	if snap.Detector.Runs != 1 || snap.Total.Blocked != 2 {
		t.Fatalf("snapshot detector=%+v total=%+v", snap.Detector, snap.Total)
	}

	var acts struct {
		Total       int                       `json:"total"`
		Activations []hwtwbg.ActivationReport `json:"activations"`
	}
	body, _ = get(t, srv, "/activations")
	if err := json.Unmarshal([]byte(body), &acts); err != nil {
		t.Fatal(err)
	}
	if acts.Total != 1 || len(acts.Activations) != 1 || acts.Activations[0].Aborted != 1 {
		t.Fatalf("/activations = %s", body)
	}

	// The manual Detect was observed (one sample, one cycle) and the
	// victim's wait span landed in the persistence estimate.
	cm := snap.CostModel
	if cm.Samples != 1 || cm.Deadlocks != 1 {
		t.Fatalf("/snapshot cost_model = %+v", cm)
	}
	if cm.VictimWaits != 1 || cm.PersistCost <= 0 {
		t.Fatalf("/snapshot cost_model missing victim wait: %+v", cm)
	}
	if cm.Period <= 0 {
		t.Fatalf("/snapshot cost_model derived no period: %+v", cm)
	}
}

func TestDebugHandlerIndexAndPprof(t *testing.T) {
	lm := debugManager(t)
	srv := httptest.NewServer(DebugHandler(lm))
	defer srv.Close()

	index, _ := get(t, srv, "/")
	links := regexp.MustCompile(`href="([^"]*)"`).FindAllStringSubmatch(index, -1)
	if len(links) == 0 {
		t.Fatalf("index links nothing:\n%s", index)
	}
	for _, m := range links {
		if code := status(t, srv, m[1]); code == http.StatusNotFound {
			t.Errorf("index links %s, which answers 404", m[1])
		}
	}
	if pprofIdx, _ := get(t, srv, "/debug/pprof/"); !strings.Contains(pprofIdx, "goroutine") {
		t.Error("/debug/pprof/ index missing goroutine profile")
	}
	for _, tc := range []struct{ path, why string }{
		{"/nope", "never served"},
		{"/journal/stream", "removed: the live stream is the wire TAIL verb"},
		{"/trace.json", "removed: hwtrace perfetto renders /journal.bin"},
		{"/nearmiss", "removed: hwtrace nearmiss reads /journal.bin"},
		{"/costmodel", "removed: /snapshot carries cost_model"},
	} {
		if code := status(t, srv, tc.path); code != http.StatusNotFound {
			t.Errorf("GET %s (%s): status %d, want 404", tc.path, tc.why, code)
		}
	}
}

// status GETs path and returns the response status.
func status(t *testing.T, h *httptest.Server, path string) int {
	t.Helper()
	resp, err := h.Client().Get(h.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}
