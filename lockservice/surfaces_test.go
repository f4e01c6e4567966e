package lockservice

import (
	"encoding/json"
	"errors"
	"flag"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"hwtwbg"
	"hwtwbg/journal"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files from the current output")

// checkGolden compares got with testdata/<name>, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output drifted from %s (rerun with -update if intended):\n%s", path, got)
	}
}

// keysOf returns the keys of a line's key=value fields, in order.
func keysOf(line string) []string {
	var keys []string
	for _, f := range strings.Fields(line) {
		if k, _, ok := strings.Cut(f, "="); ok {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestStatsKeysGolden pins the STATS reply's key sequence from a live
// server.
func TestStatsKeysGolden(t *testing.T) {
	_, addr := startTailServer(t, 1024)
	runTxns(t, dial(t, addr), 2, "stats-r")
	conn, r := rawConn(t, addr)
	line := exchange(t, conn, r, "STATS\n")
	if !strings.HasPrefix(line, "OK ") {
		t.Fatalf("STATS reply %q", line)
	}
	checkGolden(t, "stats_keys.golden", strings.Join(keysOf(line), "\n")+"\n")
}

// TestHeartbeatKeysGolden pins the set of keys one TAIL HB frame
// carries.
func TestHeartbeatKeysGolden(t *testing.T) {
	_, addr := startTailServer(t, 1024)
	runTxns(t, dial(t, addr), 2, "hb-keys")
	conn, r := rawConn(t, addr)
	if _, err := conn.Write([]byte("TAIL from=now hb=1ms\n")); err != nil {
		t.Fatal(err)
	}
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasPrefix(line, "HB ") {
			keys := keysOf(line)
			sort.Strings(keys)
			checkGolden(t, "hb_keys.golden", strings.Join(keys, "\n")+"\n")
			return
		}
	}
}

// TestTailHeartbeatJSONGolden pins TailHeartbeat's JSON, the shape
// `hwtrace tail -raw` embeds in its heartbeat lines: one HB frame
// rendered from a manager whose counters are deterministic, parsed
// back and marshalled.
func TestTailHeartbeatJSONGolden(t *testing.T) {
	b := beat{seq: 1, snap: journaledDebugManager(t).MetricsSnapshot()}
	hb, err := parseTailHeartbeat(string(b.line()))
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(hb)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "tail_heartbeat.golden", string(data)+"\n")
}

// TestTailBatchHeaderRoundTrip: the BATCH header the server writes
// parses back to the same four fields. The values are distinct, so a
// key renamed or dropped on either side reads as zero in its field,
// and two keys swapped read as each other's value.
func TestTailBatchHeaderRoundTrip(t *testing.T) {
	line := tailBatchHeader(3, 17, 1<<40+5, 99)
	ring, n, next, lost, err := parseTailBatchHeader(line)
	if err != nil || ring != 3 || n != 17 || next != 1<<40+5 || lost != 99 {
		t.Fatalf("parseTailBatchHeader(%q) = ring %d, n %d, next %d, lost %d, %v", line, ring, n, next, lost, err)
	}
}

// wireDeadlock has c1 and c2 each lock one resource and then request
// the other's, and breaks the cycle with one Detect. The victim aborts
// and the survivor commits, so nothing is left waiting.
func wireDeadlock(t *testing.T, lm *hwtwbg.Manager, c1, c2 *Client, r1, r2 string) {
	t.Helper()
	type side struct {
		c   *Client
		id  hwtwbg.TxnID
		err chan error
	}
	sides := []*side{{c: c1}, {c: c2}}
	for i, s := range sides {
		id, err := s.c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.c.Lock([]string{r1, r2}[i], hwtwbg.X); err != nil {
			t.Fatal(err)
		}
		s.id, s.err = id, make(chan error, 1)
	}
	for i, s := range sides {
		go func() { s.err <- s.c.Lock([]string{r2, r1}[i], hwtwbg.X) }()
		for deadline := time.Now().Add(5 * time.Second); !lm.Blocked(s.id); time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("T%d never blocked", s.id)
			}
		}
	}
	if st := lm.Detect(); st.Aborted != 1 {
		t.Fatalf("Detect() = %+v, want one victim", st)
	}
	for _, s := range sides {
		switch err := <-s.err; {
		case errors.Is(err, ErrAborted):
			if err := s.c.Abort(); err != nil {
				t.Fatal(err)
			}
		case err != nil:
			t.Fatal(err)
		default:
			if err := s.c.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// scrape returns each /metrics series' samples summed over their label
// sets.
func scrape(t *testing.T, lm *hwtwbg.Manager) map[string]float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	DebugHandler(lm).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	out := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSpace(rec.Body.String()), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		series, v, _ := strings.Cut(line, " ")
		name, _, _ := strings.Cut(series, "{")
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			t.Fatalf("/metrics sample %q: %v", line, err)
		}
		out[name] += f
	}
	return out
}

// TestCountersReconcile reads every row of hwtwbg.Metrics at quiescence
// four ways — from MetricsSnapshot, through Client.Stats over TCP, from
// a /metrics scrape and from one TAIL heartbeat — and finds them equal.
// The manager runs no detector timer, so nothing moves between reads.
func TestCountersReconcile(t *testing.T) {
	srv, addr := startTailServer(t, 1<<12)
	lm := srv.Manager()
	c1, c2 := dial(t, addr), dial(t, addr)
	runTxns(t, c1, 3, "rec-r")
	lm.Detect() // an activation that finds nothing: runs exceeds cycles
	wireDeadlock(t, lm, c1, c2, "rec-a", "rec-b")
	wireDeadlock(t, lm, c1, c2, "rec-c", "rec-d")

	snap := lm.MetricsSnapshot()
	for _, k := range []string{"runs", "cycles", "aborted", "shard_grants", "journal_emitted", "cm_samples", "cm_rate_uhz"} {
		if metricByStat[k].Wire(&snap) == 0 {
			t.Errorf("workload left %s at zero; the check below would be vacuous for it", k)
		}
	}

	st, err := dial(t, addr).Stats()
	if err != nil {
		t.Fatal(err)
	}
	var viaStats hwtwbg.MetricsSnapshot
	viaStats.Detector = st.Stats
	viaStats.Total.Grants = st.ShardGrants
	viaStats.Period = st.Period
	viaStats.CostModel = hwtwbg.CostModelState{
		Samples: st.CostModelSamples, Deadlocks: st.CostModelDeadlocks, RatePerSec: st.CostModelRate,
		DetectCost: st.CostModelDetect, PersistCost: st.CostModelPersist, Period: st.CostModelPeriod,
	}
	viaStats.Journal = journal.RingStats{Emitted: st.JournalEmitted, Overwritten: st.JournalOverwritten}

	var hb TailHeartbeat
	if _, err := dial(t, addr).TailJournal(TailOptions{
		Heartbeat:   time.Millisecond,
		OnHeartbeat: func(h TailHeartbeat) error { hb = h; return ErrStopTail },
	}); err != nil {
		t.Fatal(err)
	}
	var viaHB hwtwbg.MetricsSnapshot
	viaHB.Journal = journal.RingStats{Emitted: hb.Emitted, Overwritten: hb.Overwritten}
	viaHB.Total.Grants = hb.Grants
	viaHB.Detector.Runs, viaHB.Detector.CyclesSearched, viaHB.Detector.Aborted = hb.Runs, hb.Cycles, hb.Aborted
	viaHB.Period, viaHB.CostModel.Period = hb.Period, hb.CostModelPeriod

	prom := scrape(t, lm)
	for i := range hwtwbg.Metrics {
		d := &hwtwbg.Metrics[i]
		want := d.Wire(&snap)
		// The rate crosses STATS in whole µHz and Client.Stats keeps it
		// as a float, so encoding it again may come out one µHz low.
		if got := d.Wire(&viaStats); d.Stat != "" && got != want && !(d.Stat == "cm_rate_uhz" && got == want-1) {
			t.Errorf("STATS %s = %d, MetricsSnapshot %d", d.Stat, got, want)
		}
		if d.HB != "" && d.Wire(&viaHB) != want {
			t.Errorf("heartbeat %s = %d, MetricsSnapshot %d", d.HB, d.Wire(&viaHB), want)
		}
		name := d.Prom
		if d.Stat == "shard_grants" {
			name = "hwtwbg_shard_grants_total" // a per-shard family
		}
		got, ok := prom[name]
		switch v := d.Value(&snap); {
		case name == "":
		case !ok:
			t.Errorf("/metrics has no %s", name)
		case math.Abs(got-v) > 1e-8*math.Abs(v): // gauges print 9 significant digits
			t.Errorf("/metrics %s = %v, MetricsSnapshot %v", name, got, v)
		}
	}
}
