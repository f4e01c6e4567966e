package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"hwtwbg"
)

// config is every knob of a run. It is printed with the results so a
// number is never separated from its settings.
type config struct {
	Seed    int64   `json:"seed"`
	Seconds float64 `json:"seconds"` // measured time per workload when Rounds is 0
	Rounds  int     `json:"rounds"`  // measured rounds per load goroutine; 0 = as many as fit in Seconds
	Trace   bool    `json:"trace"`
	Layers  bool    `json:"layers"`
	OutDir  string  `json:"out_dir"`

	// The smoke test runs every workload at a hundredth of its size; no
	// flag sets these, so every printed number was taken at full size.
	small  bool // script pools, warm-up and kv key count at 1/100
	setups int  // set up exactly this often; 0 = until setup_s is steady
}

// scaled is a default size, or a hundredth of it but at least min for the
// smoke test.
func (c config) scaled(n, min int) int {
	if !c.small {
		return n
	}
	return max(n/100, min)
}

const (
	// latRoom is how many transaction latencies a phase has room for
	// before its store has to grow: 16 MB, a 40 s run of the fastest
	// workload.
	latRoom = 1 << 21
	// warmRounds rounds are run and discarded before
	// measuring: caches fill, pools and the journal's rings reach their
	// steady state (deadlock_storm's activation gets dearer until they do).
	warmRounds = 16
)

// workload is one named set of inputs. setup is timed as setup_s: it starts
// servers, dials, preloads and pre-generates every script from the seed.
type workload struct {
	name  string
	why   string
	setup func(cfg config) (instance, error)
}

// instance is a set-up workload. A round is small, a few tens of
// milliseconds: a fixed number of transactions on every load goroutine,
// followed by a fixed burst of reference work on every load goroutine.
type instance interface {
	// manager is the lock manager under test; its public reports give the
	// per-layer counters.
	manager() *hwtwbg.Manager
	// workers is the number of load goroutines.
	workers() int
	// sizes describes a round for the settings line.
	sizes() roundSizes
	// work replays worker w's part of one pre-generated round and adds
	// what it saw to out. budget is how many transactions the round has
	// left, shared by the load goroutines: each takes one before it starts
	// a transaction, and one that runs out of script starts it over. So
	// all of them are loading the program until the round ends, however
	// the host treated each; with a fixed count each, whichever the host
	// had held up would finish its share alone, unopposed. tr is nil on an
	// untraced round.
	work(w, script int, budget *atomic.Int64, tr *tracer, out *workOut)
	// ref runs worker w's reference burst and appends the duration of each
	// reference operation, ns, to lat.
	ref(w int, lat []int64) ([]int64, error)
	// verify checks the program's outputs after the last round and
	// returns one line per violation.
	verify() []string
	// dropInputs releases the scripts so live_heap_mb counts the
	// program, not its inputs.
	dropInputs()
	close()
}

// roundSizes is what one round of one load goroutine consists of.
type roundSizes struct {
	Workers   int    `json:"load_goroutines"`
	Txns      int    `json:"txns_per_goroutine_per_round"`
	RefOps    int    `json:"ref_ops_per_goroutine_per_round"`
	Reference string `json:"reference"`
	Pool      int    `json:"rounds_pregenerated"`
}

// layerExtras is implemented by instances that can report per-layer numbers
// beyond what the manager's public reports give; it runs only on -trace runs.
type layerExtras interface {
	extras(m map[string]float64) error
}

// workOut is what one load goroutine observed over the rounds of one kind
// (traced or not) of one phase.
type workOut struct {
	txns   int    // transactions finished: commits plus the designed victims
	failed int    // unexpected errors and check violations
	stuck  string // why the run cannot go on, if it cannot
	// lat is the per-transaction latency, ns. On deadlock_storm, where a
	// transaction's life is the driver's to arrange, it is what the
	// detector decides: a participant's Lock return minus the instant
	// Detect was called.
	lat []int64

	// deadlock_storm only.
	activation []int64 // wall time of each Manager.Detect call, ns
	cycles     int     // deadlocks the driver formed
	aborted    int     // victims the activations reported
}

func (o *workOut) add(p *workOut) {
	o.txns += p.txns
	o.failed += p.failed
	o.lat = append(o.lat, p.lat...)
	o.activation = append(o.activation, p.activation...)
	o.cycles += p.cycles
	o.aborted += p.aborted
}

// sample is one round: every load goroutine's transactions, then every load
// goroutine's reference burst. Times are summed over the goroutines.
type sample struct {
	work, ref       int64 // ns inside the transactions; ns inside the quickest reference burst, times the goroutines
	cpuWork, cpuRef int64 // process CPU ns during the transactions and during the bursts
	txns, refOps    int
	latP50, refP50  float64 // medians of the round's transaction latencies and of its reference operations, ns
	traced          bool
}

// cost is the round's transaction time as a multiple of its reference
// operation's time.
func (s sample) cost() float64 {
	return (float64(s.work) / float64(s.txns)) / (float64(s.ref) / float64(s.refOps))
}

// phaseLog is what one phase (warm-up or measured) observed.
type phaseLog struct {
	samples       []sample
	plain, traced workOut
}

// harness drives an instance's load goroutines through rounds; round counts
// the rounds run so far and picks the script.
type harness struct {
	inst  instance
	round int
	pool  int
}

// together runs f on every load goroutine at once and returns the time the
// goroutines spent in it, summed, and the shortest of them times their
// number.
func (h *harness) together(f func(w int)) (sum, least int64) {
	n := h.inst.workers()
	if n == 1 {
		start := time.Now()
		f(0)
		d := int64(time.Since(start))
		return d, d
	}
	took := make([]int64, n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			start := time.Now()
			f(w)
			took[w] = int64(time.Since(start))
		}(w)
	}
	wg.Wait()
	least = took[0]
	for _, d := range took {
		sum += d
		least = min(least, d)
	}
	return sum, least * int64(n)
}

// drive runs rounds until done says stop. In a round the load goroutines
// first replay their scripts, closed-loop and all at once, and then, all at
// once again, run their reference bursts: a few tens of milliseconds of the
// one, then a few of the other, so both see the same state of the host.
// With tr every second round is traced, so tracing overhead is a ratio of
// neighbours.
func (h *harness) drive(tr *tracer, done func(round int, elapsed time.Duration) bool) (*phaseLog, error) {
	n := h.inst.workers()
	log := &phaseLog{}
	// Room for a run's latencies up front: a store that grows while the
	// rounds run makes the collector's pace, and so the cost of a
	// transaction, depend on how long the run has been going.
	log.plain.lat = make([]int64, 0, latRoom)
	outs := make([]workOut, n)
	refLat, errs := make([][]int64, n), make([]error, n)
	var roundLat, roundRef []int64
	var budget atomic.Int64
	perWorker := h.inst.sizes().Txns
	start := time.Now()
	for r := 0; !done(r, time.Since(start)); r++ {
		rtr := tr
		if r%2 == 0 {
			rtr = nil
		}
		script := h.round % h.pool
		h.round++
		s := sample{traced: rtr != nil}
		c0 := processCPU()
		budget.Store(int64(n * perWorker))
		s.work, _ = h.together(func(w int) { h.inst.work(w, script, &budget, rtr, &outs[w]) })
		c1 := processCPU()
		// The reference is there to say how fast the host is just now.
		// The collector or the detector finishing what the transactions
		// started takes a processor from one goroutine's burst, so the
		// burst that finished first says it best.
		_, s.ref = h.together(func(w int) { refLat[w], errs[w] = h.inst.ref(w, refLat[w][:0]) })
		s.cpuWork, s.cpuRef = int64(c1-c0), int64(processCPU()-c1)
		into := &log.plain
		if s.traced {
			into = &log.traced
		}
		roundLat, roundRef = roundLat[:0], roundRef[:0]
		for w := range outs {
			if errs[w] != nil {
				return nil, errs[w]
			}
			if outs[w].stuck != "" {
				return nil, errors.New(outs[w].stuck)
			}
			s.txns += outs[w].txns + outs[w].failed
			s.refOps += len(refLat[w])
			roundLat, roundRef = append(roundLat, outs[w].lat...), append(roundRef, refLat[w]...)
			into.add(&outs[w])
			outs[w] = workOut{lat: outs[w].lat[:0], activation: outs[w].activation[:0]}
			rtr.fold(w)
		}
		s.latP50, s.refP50 = percentile(roundLat, 0.50), percentile(roundRef, 0.50)
		log.samples = append(log.samples, s)
	}
	return log, nil
}

// burst runs op n times on the caller's goroutine and appends the duration
// of each, ns, to lat.
func burst(n int, lat []int64, op func() error) ([]int64, error) {
	last := time.Now()
	for ; n > 0; n-- {
		if err := op(); err != nil {
			return lat, err
		}
		now := time.Now()
		lat = append(lat, int64(now.Sub(last)))
		last = now
	}
	return lat, nil
}

func fixedRounds(n int) func(int, time.Duration) bool {
	return func(r int, _ time.Duration) bool { return r >= n }
}

// result is one workload run.
type result struct {
	Workload   string             `json:"workload"`
	Sizes      roundSizes         `json:"round"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Rounds     int                `json:"rounds"`
	Violations []string           `json:"violations,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
	SelfTimeMs map[string]float64 `json:"trace_self_time_ms,omitempty"` // per layer, traced rounds only
}

// count adds a phase's transactions to the run's attempted and failed.
func (res *result) count(p *phaseLog) {
	res.Attempted += p.plain.txns + p.plain.failed + p.traced.txns + p.traced.failed
	res.Failed += p.plain.failed + p.traced.failed
}

// processCPU is the CPU time of this process so far. getrusage would do,
// but it advances in scheduler ticks of 1-4 ms, too coarse for a 10 ms burst.
func processCPU() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// setUp runs the workload's set-up several times — at least five, then
// until 1.5 s have gone into it or fifteen are done — closing all but the
// last instance, and returns that instance with the median set-up time.
func setUp(w workload, cfg config) (instance, float64, error) {
	var inst instance
	var times []float64
	var total time.Duration
	more := func() bool {
		if cfg.setups > 0 {
			return len(times) < cfg.setups
		}
		return len(times) < 5 || (len(times) < 15 && total < 1500*time.Millisecond)
	}
	for more() {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		inst, err = w.setup(cfg)
		if err != nil {
			return nil, 0, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		d := time.Since(start)
		total += d
		times = append(times, d.Seconds())
	}
	return inst, median(times), nil
}

// runWorkload is one full run: set-up, the discarded warm-up rounds, the
// measured rounds, the output checks and the metrics.
func runWorkload(w workload, cfg config) (*result, error) {
	inst, setupS, err := setUp(w, cfg)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	res := &result{Workload: w.name, Sizes: inst.sizes(), Metrics: map[string]float64{"setup_s": setupS}}
	h := &harness{inst: inst, pool: inst.sizes().Pool}

	warm, err := h.drive(nil, fixedRounds(cfg.scaled(warmRounds, 1)))
	if err != nil {
		return nil, err
	}
	res.count(warm)

	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}
	stop := fixedRounds(cfg.Rounds)
	if cfg.Rounds == 0 {
		stop = func(r int, elapsed time.Duration) bool { return r >= 3 && elapsed.Seconds() >= cfg.Seconds }
	}
	runtime.GC()
	before, m0 := readCounters(inst.manager()), mallocs()
	measured, err := h.drive(tr, stop)
	if err != nil {
		return nil, err
	}
	allocs := mallocs() - m0
	after := readCounters(inst.manager())
	acts := activationMeans(inst.manager())

	res.count(measured)
	res.Rounds = len(measured.samples)
	res.Violations = inst.verify()
	res.Failed += len(res.Violations)
	res.Correct = res.Failed == 0

	summarize(res.Metrics, inst, measured, allocs, after.sub(before), acts)
	if cfg.Trace {
		if x, ok := inst.(layerExtras); ok {
			if err := x.extras(res.Metrics); err != nil {
				return nil, err
			}
		}
		if res.SelfTimeMs, err = tr.report(res.Metrics, w.name, cfg.OutDir); err != nil {
			return nil, err
		}
	}

	inst.dropInputs()
	measured, tr = nil, nil
	runtime.GC()
	runtime.GC() // twice: the first only moves sync.Pool contents to the victim cache
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.Metrics["live_heap_mb"] = float64(ms.HeapAlloc) / (1 << 20)
	return res, nil
}

// summarize turns the measured phase into metrics. The timing metrics with
// "cost" in their name are ratios taken round by round, so that the
// transactions and the reference they are divided by ran within the same few
// tens of milliseconds; percentiles in real units pool every untraced round.
func summarize(m map[string]float64, inst instance, p *phaseLog, allocs uint64, d counters, acts map[string]float64) {
	var cost, p50Cost, cpuCost, tracedCost []float64
	var work, ref, cpu int64
	var refOps int
	for _, s := range p.samples {
		if s.txns == 0 {
			continue
		}
		if s.traced {
			tracedCost = append(tracedCost, s.cost())
			continue
		}
		cost = append(cost, s.cost())
		p50Cost = append(p50Cost, s.latP50/s.refP50)
		cpuCost = append(cpuCost, (float64(s.cpuWork)/float64(s.txns))/(float64(s.cpuRef)/float64(s.refOps)))
		work += s.work
		ref += s.ref
		cpu += s.cpuWork
		refOps += s.refOps
	}
	plain := &p.plain
	allTxns := float64(plain.txns + p.traced.txns)

	m["txn_cost"] = lowerQuartile(cost)
	m["client.txn_p50_cost"] = median(p50Cost)
	m["client.cpu_cost"] = median(cpuCost)
	m["allocs_per_txn"] = float64(allocs) / allTxns
	m["client.txn_per_s"] = float64(inst.workers()) * float64(plain.txns) / (float64(work) / 1e9)
	m["client.cpu_us_per_txn"] = float64(cpu) / 1e3 / float64(plain.txns)
	m["client.txn_p50_us"] = percentile(plain.lat, 0.50) / 1e3
	m["client.txn_p99_us"] = percentile(plain.lat, 0.99) / 1e3
	m["ref."+inst.sizes().Reference+"_us"] = float64(ref) / float64(refOps) / 1e3
	m["ref.time_share"] = float64(ref) / float64(ref+work)
	if len(tracedCost) > 0 {
		m["trace.overhead_x"] = lowerQuartile(tracedCost) / lowerQuartile(cost)
	}
	if len(plain.activation) > 0 {
		m["client.activation_p50_us"] = percentile(plain.activation, 0.50) / 1e3
		m["client.aborts_per_deadlock"] = float64(plain.aborted+p.traced.aborted) / float64(plain.cycles+p.traced.cycles)
		// The manager's reports cover traced and untraced activations alike.
		m["manager.detect.report_us"] = mean(append(p.traced.activation, plain.activation...))/1e3 - acts["manager.detect.total_us"]
	}
	for k, v := range acts {
		m[k] = v
	}

	// Counter deltas span every measured round, traced or not.
	perTxn := func(n uint64) float64 { return float64(n) / allTxns }
	m["manager.mutex_rounds_per_txn"] = perTxn(d.mutexRounds)
	if d.mutexRounds > 0 {
		m["manager.flat_combined_share"] = float64(d.flatCombined) / float64(d.mutexRounds)
	}
	m["manager.locks_per_txn"] = perTxn(d.grants)
	if d.requests > 0 {
		m["manager.blocked_share"] = float64(d.blocked) / float64(d.requests)
	}
	m["manager.detect.activations"] = float64(d.runs)
	if n := d.shardsCopied + d.shardsSkipped; n > 0 {
		m["manager.detect.shards_skipped_share"] = float64(d.shardsSkipped) / float64(n)
	}
	m["journal.emitted_per_txn"] = perTxn(d.emitted)
	if d.emitted > 0 {
		m["journal.overwritten_share"] = float64(d.overwritten) / float64(d.emitted)
	}
}

// counters are the cumulative layer counters the manager publishes.
type counters struct {
	mutexRounds, flatCombined, grants uint64
	requests, blocked                 uint64
	emitted, overwritten              uint64
	runs, shardsCopied, shardsSkipped uint64
}

func readCounters(lm *hwtwbg.Manager) counters {
	var c counters
	for _, s := range lm.ShardStats() {
		c.mutexRounds += s.MutexAcquires
		c.flatCombined += s.FlatCombined
		c.grants += s.Grants
	}
	snap := lm.MetricsSnapshot()
	c.requests = snap.Total.Fresh + snap.Total.Conversions
	c.blocked = snap.Total.Blocked
	c.emitted = snap.Journal.Emitted
	c.overwritten = snap.Journal.Overwritten
	c.runs = uint64(snap.Detector.Runs)
	c.shardsCopied = uint64(snap.Detector.ShardsCopied)
	c.shardsSkipped = uint64(snap.Detector.ShardsSkipped)
	return c
}

func (a counters) sub(b counters) counters {
	return counters{
		mutexRounds: a.mutexRounds - b.mutexRounds, flatCombined: a.flatCombined - b.flatCombined,
		grants: a.grants - b.grants, requests: a.requests - b.requests, blocked: a.blocked - b.blocked,
		emitted: a.emitted - b.emitted, overwritten: a.overwritten - b.overwritten,
		runs: a.runs - b.runs, shardsCopied: a.shardsCopied - b.shardsCopied,
		shardsSkipped: a.shardsSkipped - b.shardsSkipped,
	}
}

// activationMeans averages the manager's retained activation reports (the
// most recent HistorySize of them) phase by phase. On deadlock_storm these
// are the driver's own Detect calls; elsewhere they are the background
// detector's idle activations.
func activationMeans(lm *hwtwbg.Manager) map[string]float64 {
	reps, _ := lm.Activations()
	out := map[string]float64{}
	n := float64(len(reps))
	if n == 0 {
		return out
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / n }
	for _, r := range reps {
		out["manager.detect.acquire_us"] += us(r.Acquire)
		out["manager.detect.copy_us"] += us(r.Copy)
		out["manager.detect.build_us"] += us(r.Build)
		out["manager.detect.search_us"] += us(r.Search)
		out["manager.detect.resolve_us"] += us(r.Resolve)
		out["manager.detect.validate_us"] += us(r.Validate)
		out["manager.detect.wake_us"] += us(r.Wake)
		out["manager.detect.total_us"] += us(r.Total)
		out["manager.detect.max_shard_hold_us"] += us(r.MaxShardHold)
		out["manager.detect.vertices"] += float64(r.Vertices) / n
		out["manager.detect.edges"] += float64(r.Edges) / n
		out["manager.detect.edge_visits"] += float64(r.EdgeVisits) / n
		out["manager.detect.cycles"] += float64(r.CyclesSearched) / n
		out["manager.detect.validations"] += float64(r.Validations) / n
		out["manager.detect.false_cycles"] += float64(r.FalseCycles) / n
		out["manager.detect.shards_copied"] += float64(r.ShardsCopied) / n
	}
	// What the report's Total holds beyond its named phases.
	out["manager.detect.unattributed_us"] = out["manager.detect.total_us"]
	for _, phase := range []string{"acquire", "copy", "build", "search", "resolve", "validate", "wake"} {
		out["manager.detect.unattributed_us"] -= out["manager.detect."+phase+"_us"]
	}
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(v))
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// lowerQuartile is the value a quarter of the rounds stay below. Whatever
// else the host runs only ever adds time to a round, and to how many rounds
// differs from run to run; over ten runs of one binary this held twice as
// steady as the median of the same rounds.
func lowerQuartile(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(v))
	return s[len(s)/4]
}

func mean(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += float64(x)
	}
	return sum / float64(len(v))
}

// percentile sorts v in place and returns its q-quantile (nearest rank).
func percentile(v []int64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	slices.Sort(v)
	i := int(math.Ceil(q*float64(len(v)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(v[i])
}
