package hwtwbg

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestMetricsSnapshotCounters(t *testing.T) {
	m := Open(Options{Shards: 4})
	defer m.Close()
	ctx := context.Background()

	a := m.Begin()
	if err := a.Lock(ctx, "r1", IS); err != nil {
		t.Fatal(err)
	}
	if err := a.Lock(ctx, "r1", IX); err != nil { // conversion, immediate
		t.Fatal(err)
	}
	if err := a.Lock(ctx, "r2", X); err != nil {
		t.Fatal(err)
	}

	// A fresh requestor blocks behind a's X and is granted at commit.
	b := m.Begin()
	done := make(chan error, 1)
	go func() { done <- b.Lock(ctx, "r2", S) }()
	waitBlocked(t, m, b.ID())
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	snap := m.MetricsSnapshot()
	tot := snap.Total
	if tot.Fresh != 3 { // r1 IS, r2 X, b's r2 S
		t.Errorf("fresh = %d, want 3", tot.Fresh)
	}
	if tot.Conversions != 1 {
		t.Errorf("conversions = %d, want 1", tot.Conversions)
	}
	if tot.Immediate != 3 {
		t.Errorf("immediate = %d, want 3", tot.Immediate)
	}
	if tot.Blocked != 1 {
		t.Errorf("blocked = %d, want 1", tot.Blocked)
	}
	// 3 immediate grants + 1 hand-off grant.
	if tot.Grants != 4 {
		t.Errorf("grants = %d, want 4", tot.Grants)
	}
	if tot.WaitNs.Count != 1 {
		t.Errorf("wait observations = %d, want 1", tot.WaitNs.Count)
	}
	if tot.GrantNs.Count != 4 {
		t.Errorf("time-to-grant observations = %d, want 4", tot.GrantNs.Count)
	}
	if tot.QueueDepth.Count != 1 {
		t.Errorf("queue-depth observations = %d, want 1", tot.QueueDepth.Count)
	}
	// Depth in line for b was 1 (itself); the histogram must have seen it.
	if got := tot.QueueDepth.Quantile(1); got != 1 {
		t.Errorf("max queue depth = %d, want 1", got)
	}
	// Per-mode: immediate grants count requested modes; the hand-off
	// counts the table's effective mode (S).
	if tot.GrantsByMode["IS"] != 1 || tot.GrantsByMode["IX"] != 1 || tot.GrantsByMode["X"] != 1 || tot.GrantsByMode["S"] != 1 {
		t.Errorf("grants by mode = %v", tot.GrantsByMode)
	}
	// Shard grants must sum to the total and agree with ShardStats.
	var sum uint64
	for i, s := range snap.Shards {
		sum += s.Grants
		if ss := m.ShardStats()[i]; ss.Grants != s.Grants {
			t.Errorf("shard %d: ShardStats %d != snapshot %d", i, ss.Grants, s.Grants)
		}
	}
	if sum != tot.Grants {
		t.Errorf("shard grant sum %d != total %d", sum, tot.Grants)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsTryLockAndWaitAbort(t *testing.T) {
	m := Open(Options{})
	defer m.Close()
	ctx := context.Background()

	a := m.Begin()
	if err := a.Lock(ctx, "r", X); err != nil {
		t.Fatal(err)
	}
	b := m.Begin()
	if ok, err := b.TryLock("r", X); ok || err != nil {
		t.Fatalf("TryLock = %v, %v", ok, err)
	}
	if ok, err := b.TryLock("other", S); !ok || err != nil {
		t.Fatalf("TryLock other = %v, %v", ok, err)
	}

	// A context-cancelled wait must count as a wait abort.
	cctx, cancel := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() { done <- b.Lock(cctx, "r", S) }()
	waitBlocked(t, m, b.ID())
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}

	snap := m.MetricsSnapshot()
	if snap.Total.TryRefused != 1 {
		t.Errorf("tryRefused = %d, want 1", snap.Total.TryRefused)
	}
	if snap.Total.WaitAborts != 1 {
		t.Errorf("waitAborts = %d, want 1", snap.Total.WaitAborts)
	}
	a.Commit()
}

func TestWritePrometheus(t *testing.T) {
	m := Open(Options{Shards: 2})
	defer m.Close()
	ctx := context.Background()

	// Build a deadlock, resolve it, and make one request wait so the
	// wait-latency histogram is non-empty.
	a, b := m.Begin(), m.Begin()
	if err := a.Lock(ctx, "x", X); err != nil {
		t.Fatal(err)
	}
	if err := b.Lock(ctx, "y", X); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	go func() { errs <- a.Lock(ctx, "y", X) }()
	go func() { errs <- b.Lock(ctx, "x", X) }()
	waitBlocked(t, m, a.ID())
	waitBlocked(t, m, b.ID())
	m.Detect()
	<-errs
	<-errs

	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE hwtwbg_lock_wait_seconds histogram",
		`hwtwbg_lock_wait_seconds_bucket{le="+Inf"} 1`,
		"# TYPE hwtwbg_time_to_grant_seconds histogram",
		"# TYPE hwtwbg_queue_depth_enqueue histogram",
		`hwtwbg_lock_requests_total{kind="fresh"} 4`,
		`hwtwbg_shard_grants_total{shard="0"}`,
		`hwtwbg_shard_grants_total{shard="1"}`,
		"hwtwbg_detector_runs_total 1",
		"hwtwbg_detector_victims_total 1",
		"hwtwbg_detector_cycles_total 1",
		`hwtwbg_detector_phase_seconds_total{phase="acquire"}`,
		`hwtwbg_detector_phase_seconds_total{phase="build"}`,
		`hwtwbg_detector_phase_seconds_total{phase="search"}`,
		`hwtwbg_detector_phase_seconds_total{phase="resolve"}`,
		`hwtwbg_detector_phase_seconds_total{phase="wake"}`,
		"hwtwbg_detector_shard_hold_last_seconds",
		"hwtwbg_costmodel_samples_total 1",
		"hwtwbg_costmodel_deadlocks_total 1",
		"hwtwbg_costmodel_victim_waits_total 1",
		"# TYPE hwtwbg_costmodel_rate_hz gauge",
		"hwtwbg_costmodel_detect_cost_seconds",
		"hwtwbg_costmodel_persist_cost_seconds",
		"hwtwbg_costmodel_stall_rate",
		"hwtwbg_costmodel_period_seconds",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in /metrics output", want)
		}
	}

	// The snapshot carries the same state.
	snap := m.MetricsSnapshot()
	if snap.CostModel.Samples != 1 || snap.CostModel.Deadlocks != 1 || snap.CostModel.VictimWaits != 1 {
		t.Errorf("snapshot cost model = %+v", snap.CostModel)
	}
	if snap.CostModel.PersistCost <= 0 || snap.CostModel.Period <= 0 {
		t.Errorf("snapshot cost model estimates = %+v", snap.CostModel)
	}
}

// TestActivationRing resolves one two-transaction deadlock by hand and
// reads the activation back the three ways it is kept: the report ring,
// the cumulative phase totals, and — for the request outcomes around it
// — the journal.
func TestActivationRing(t *testing.T) {
	m := Open(Options{})
	defer m.Close()
	ctx := context.Background()

	a, b := m.Begin(), m.Begin()
	if err := a.Lock(ctx, "x", X); err != nil {
		t.Fatal(err)
	}
	if err := b.Lock(ctx, "y", X); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	go func() { errs <- a.Lock(ctx, "y", X) }()
	go func() { errs <- b.Lock(ctx, "x", X) }()
	waitBlocked(t, m, a.ID())
	waitBlocked(t, m, b.ID())
	m.Detect()
	e1, e2 := <-errs, <-errs

	aborted := 0
	if errors.Is(e1, ErrAborted) {
		aborted++
	}
	if errors.Is(e2, ErrAborted) {
		aborted++
	}
	if aborted != 1 {
		t.Fatalf("errs = %v / %v", e1, e2)
	}
	// The survivor holds both locks now; commit it (its owner is the
	// main goroutine for locks x/y regardless of which txn won).
	if e1 == nil {
		a.Commit()
	} else {
		b.Commit()
	}

	// 2 blocks, 2 immediate grants + the survivor's waited grant, and
	// the victim's owner-side abort.
	got := tallyJournal(m.Journal().Snapshot())
	if got.blocks != 2 || got.grants != 3 || got.waitedGrants != 1 || got.aborts != 1 || got.detects != 1 {
		t.Errorf("journal tally = %+v", got)
	}

	reports, total := m.Activations()
	if total != 1 || len(reports) != 1 {
		t.Fatalf("Activations() = %v, %d", reports, total)
	}
	rep := reports[0]
	if rep.Seq != 1 || rep.CyclesSearched != 1 || rep.Aborted != 1 || rep.Vertices != 2 {
		t.Errorf("report = %+v", rep)
	}
	if rep.Total <= 0 || rep.Total < rep.Build+rep.Search+rep.Resolve {
		t.Errorf("phase arithmetic wrong: %+v", rep)
	}
	if !strings.Contains(rep.String(), "activation 1:") {
		t.Errorf("String() = %q", rep.String())
	}

	// Cumulative phase totals must have accumulated the report.
	snap := m.MetricsSnapshot()
	if snap.Phases.Build != rep.Build || snap.Phases.Search != rep.Search {
		t.Errorf("phases = %+v, report = %+v", snap.Phases, rep)
	}
}

// TestActivationPhasesCoverTotal pins the report's own accounting:
// everything an activation does — the dirty scan, the per-shard copies,
// the merge, Steps 1–3, the live replay — must land in a named phase.
// For the activation that resolves a deadlock the named phases sum to
// at least 95% of Total; the one after it recopies only the shards
// whose sub-snapshots the resolution rewrote (the bystander locks in
// the other shards are not copied again), which takes a few
// microseconds, so there the two clock reads that separate the phases
// are themselves 5% and the bound is absolute: a microsecond. The best
// of a few attempts is judged so one preemption between two clock reads
// cannot fail the test.
func TestActivationPhasesCoverTotal(t *testing.T) {
	m := Open(Options{Shards: 8})
	defer m.Close()
	ctx := context.Background()
	pin := m.Begin()
	for i := 0; i < 2048; i++ {
		if err := pin.Lock(ctx, shardResource(t, m, uint32(i%8), i), S); err != nil {
			t.Fatal(err)
		}
	}
	best := 0.0
	var bestRep ActivationReport
	for attempt := 0; attempt < 5 && best < 0.95; attempt++ {
		a, b := m.Begin(), m.Begin()
		if err := a.Lock(ctx, "phase/x", X); err != nil {
			t.Fatal(err)
		}
		if err := b.Lock(ctx, "phase/y", X); err != nil {
			t.Fatal(err)
		}
		errs := make(chan error, 2)
		go func() { errs <- a.Lock(ctx, "phase/y", X) }()
		waitBlocked(t, m, a.ID())
		go func() { errs <- b.Lock(ctx, "phase/x", X) }()
		waitBlocked(t, m, b.ID())
		if st := m.Detect(); st.Aborted != 1 {
			t.Fatalf("activation = %+v, want one abort", st)
		}
		resolving := lastActivation(t, m)
		<-errs
		<-errs
		a.Abort()
		b.Abort()

		m.Detect()
		after := lastActivation(t, m)
		if after.ShardsCopied > 2 {
			t.Fatalf("activation after a resolution copied %d shards, want at most the deadlock's 2", after.ShardsCopied)
		}
		named := func(rep ActivationReport) time.Duration {
			return rep.Acquire + rep.Copy + rep.Build + rep.Search + rep.Resolve + rep.Validate
		}
		if after.Total-named(after) > time.Microsecond {
			bestRep = after
			continue
		}
		if share := float64(named(resolving)) / float64(resolving.Total); share > best {
			best, bestRep = share, resolving
		}
	}
	if best < 0.95 {
		t.Fatalf("named phases cover %.1f%% of Total, want >= 95%%: %v", 100*best, bestRep)
	}
}

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

// metricsWorkload drives a manager with no detector timer through a
// fixed script that touches every counter /metrics renders: fresh and
// conversion requests, a TryLock refusal, a blocked request granted at
// commit, a wait ended by cancellation, and two cross-shard deadlocks
// each broken by one Detect.
func metricsWorkload(t *testing.T) *Manager {
	t.Helper()
	m := Open(Options{Shards: 2, JournalSize: 1 << 10})
	t.Cleanup(m.Close)
	ctx := context.Background()
	res := func(shard uint32, salt int) ResourceID { return shardResource(t, m, shard, salt) }
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	a, b := m.Begin(), m.Begin()
	must(a.Lock(ctx, res(0, 1), X))
	must(a.Lock(ctx, res(1, 2), IS))
	must(a.Lock(ctx, res(1, 2), IX))
	if ok, err := b.TryLock(res(0, 1), S); ok || err != nil {
		t.Fatalf("TryLock behind an X = %v, %v", ok, err)
	}
	granted := make(chan error, 1)
	go func() { granted <- b.Lock(ctx, res(0, 1), S) }()
	waitBlocked(t, m, b.ID())
	must(a.Commit())
	must(<-granted)

	cctx, cancel := context.WithCancel(ctx)
	c := m.Begin()
	cancelled := make(chan error, 1)
	go func() { cancelled <- c.Lock(cctx, res(0, 1), X) }()
	waitBlocked(t, m, c.ID())
	cancel()
	if err := <-cancelled; err == nil {
		t.Fatal("cancelled wait was granted")
	}
	must(b.Commit())

	for i := 0; i < 2; i++ {
		f, g := m.Begin(), m.Begin()
		must(f.Lock(ctx, res(0, 10+i), X))
		must(g.Lock(ctx, res(1, 20+i), X))
		cyc := make(chan error, 2)
		go func() { cyc <- f.Lock(ctx, res(1, 20+i), X) }()
		waitBlocked(t, m, f.ID())
		go func() { cyc <- g.Lock(ctx, res(0, 10+i), X) }()
		waitBlocked(t, m, g.ID())
		if st := m.Detect(); st.Aborted != 1 {
			t.Fatalf("Detect() = %+v, want one victim", st)
		}
		<-cyc
		<-cyc
		for _, tx := range []*Txn{f, g} {
			if tx.Err() == nil {
				must(tx.Commit())
			}
		}
	}
	return m
}

// TestPrometheusExpositionGolden pins the whole /metrics exposition —
// every name, HELP and TYPE line, label set and their order — on a
// deterministic workload. Samples whose values are timings are masked:
// their values read T, and a timing histogram keeps only its +Inf
// bucket (which finite buckets appear depends on the timings).
func TestPrometheusExpositionGolden(t *testing.T) {
	m := metricsWorkload(t)
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		name, _, _ := strings.Cut(line, " ")
		name, labels, _ := strings.Cut(name, "{")
		// The live period is configuration (zero: no timer), not a timing.
		timed := (strings.Contains(name, "seconds") || strings.HasSuffix(name, "_hz")) &&
			name != "hwtwbg_detector_period_seconds"
		if strings.HasPrefix(line, "#") || !timed {
			out.WriteString(line + "\n")
			continue
		}
		if strings.HasSuffix(name, "_bucket") && !strings.Contains(labels, `le="+Inf"`) {
			continue
		}
		if strings.HasSuffix(name, "_bucket") || strings.HasSuffix(name, "_count") {
			out.WriteString(line + "\n") // counts, not timings
			continue
		}
		out.WriteString(line[:strings.LastIndexByte(line, ' ')] + " T\n")
	}
	checkGolden(t, "metrics.golden", out.String())
}

// TestActivationReportJSONGolden pins the JSON of one activation
// report, the element of /activations: every field set to a distinct
// value, so a renamed tag, a moved field or a phase that leaves the
// report shows as a diff. The fields are set one by one rather than in
// a composite literal, so the test reads the same whichever struct
// carries the phase durations.
func TestActivationReportJSONGolden(t *testing.T) {
	var r ActivationReport
	r.Time = time.Unix(1700000000, 123456789).UTC()
	r.Seq = 7
	r.Acquire, r.Copy, r.Build, r.Search = 11, 12, 13, 14
	r.Resolve, r.Validate, r.Wake, r.Total = 15, 16, 17, 100
	r.MaxShardHold = 9
	r.Vertices, r.Edges, r.EdgeVisits, r.CyclesSearched = 21, 22, 23, 24
	r.Aborted, r.Repositioned, r.Salvaged = 25, 26, 27
	r.FalseCycles, r.Validations = 28, 29
	r.ShardsCopied, r.ShardsSkipped = 30, 31
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "activation_report.golden", string(data)+"\n")
}
