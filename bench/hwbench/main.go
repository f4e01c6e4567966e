// Command hwbench is the repository's benchmark: four workloads that each
// load a different layer of the lock manager, end-to-end metrics with
// regression bounds, and per-layer numbers taken from outside the program.
// See bench/README.md for the workloads, the metric glossary and how to read
// the output.
//
// From the root of a checkout, bash bench/run.sh builds and runs it; bench is
// a module of its own, so go run needs it as the working directory:
//
//	cd bench && go run ./hwbench                          every workload, human report
//	cd bench && go run ./hwbench -workload kv_zipf        one workload; last line is the result as JSON
//	cd bench && go run ./hwbench -workload kv_zipf -trace 1 -out out   the per-layer metrics and out/trace-kv_zipf.json
//	cd bench && go run ./hwbench -repeat 5                the repeatability self-check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

var workloads = []workload{
	{"wire_verbs", "six wire round trips per transaction and no conflicts: lockservice parse, format, flush and syscall do almost all the work, the manager little, the detector idles", setupWire(false)},
	{"wire_hot", "five round trips, a long LOCKALL line first, hot/0 held across the next two verbs so most transactions queue behind the other client: parse cost per byte, LockAll group path, commit-wake-grant-reply", setupWire(true)},
	{"kv_zipf", "no wire: the kv store over Txn.Lock with real blocking on Zipf-hot keys, deadlock-free by sorted access, the detector idling over a dirty table", setupKV},
	{"deadlock_storm", "the detector does most of the work: 8 deadlocks among 44 parked transactions and 2048 bystander locks per manual activation, nothing waits on a timer", setupStorm},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// settings is printed with every result.
type settings struct {
	config
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output of a one-workload run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var cfg config
	var name string
	var trace, repeat int
	var asJSON bool
	flag.StringVar(&name, "workload", "", "run only this workload and print the result as one JSON line (default: every workload)")
	flag.Int64Var(&cfg.Seed, "seed", 1, "seed of the input generator (1 while tuning, 2 is the hold-out)")
	flag.Float64Var(&cfg.Seconds, "seconds", 8, "measure whole rounds until this much time has passed")
	flag.IntVar(&cfg.Rounds, "rounds", 0, "measure exactly this many rounds per load goroutine instead of filling -seconds")
	flag.IntVar(&trace, "trace", 0, "1: alternate traced rounds, write spans to -out, report the per-layer metrics")
	flag.BoolVar(&cfg.Layers, "layers", false, "also run the single-layer micro loops (implied by -trace 1)")
	flag.StringVar(&cfg.OutDir, "out", "bench/out", "directory for trace-<workload>.json")
	flag.IntVar(&repeat, "repeat", 0, "run two interleaved sets of this many fresh-process runs per workload and compare them")
	flag.BoolVar(&asJSON, "json", false, "with every workload: print settings and all metrics as one JSON document")
	flag.Parse()
	if flag.NArg() > 0 || (trace != 0 && trace != 1) || cfg.Seconds <= 0 || cfg.Rounds < 0 || repeat < 0 {
		flag.Usage()
		os.Exit(2)
	}
	if asJSON && (name != "" || repeat > 0) {
		fmt.Fprintln(os.Stderr, "hwbench: -json is the report of a run of every workload; with -workload the last line of output is the result as JSON already")
		os.Exit(2)
	}
	cfg.Trace = trace == 1
	cfg.Layers = cfg.Layers || cfg.Trace

	if repeat > 0 {
		os.Exit(runRepeat(repeat, name, cfg))
	}
	if name != "" {
		os.Exit(runOne(name, cfg))
	}
	os.Exit(runAll(cfg, asJSON))
}

func currentSettings(cfg config) settings {
	return settings{config: cfg, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
}

// run is one workload plus, when asked, the micro loops.
func run(w workload, cfg config) (*result, error) {
	res, err := runWorkload(w, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Layers {
		if err := runLayers(res.Metrics); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runOne is the driver's contract: progress and the named metrics on
// standard output, then one JSON object as the last line.
func runOne(name string, cfg config) int {
	w, ok := findWorkload(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "hwbench: unknown workload %q\n", name)
		return 2
	}
	res, err := run(w, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hwbench: %v\n", err)
		return 1
	}
	st, _ := json.Marshal(currentSettings(cfg))
	fmt.Printf("settings %s\n", st)
	defs := endToEnd
	if cfg.Trace {
		defs = perLayer
	}
	printResult(res, endToEnd)
	printMetrics(res, perLayer)
	printSelfTimes(res)
	line := resultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		line.Metrics[d.Name] = metricValue{res.Metrics[d.Name], d.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hwbench: %v\n", err)
		return 1
	}
	fmt.Printf("%s\n", out)
	if !res.Correct {
		return 1
	}
	return 0
}

func printResult(res *result, defs []metricDef) {
	fmt.Printf("%s: %d rounds, %d transactions attempted, %d failed, correct=%v\n",
		res.Workload, res.Rounds, res.Attempted, res.Failed, res.Correct)
	sizes, _ := json.Marshal(res.Sizes)
	fmt.Printf("  a round: %s\n", sizes)
	for _, v := range res.Violations {
		fmt.Printf("  CHECK FAILED: %s\n", v)
	}
	printMetrics(res, defs)
}

// printSelfTimes prints the traced run's self time per layer, largest first.
func printSelfTimes(res *result) {
	layers := make([]string, 0, len(res.SelfTimeMs))
	for l := range res.SelfTimeMs {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return res.SelfTimeMs[layers[i]] > res.SelfTimeMs[layers[j]] })
	for _, l := range layers {
		fmt.Printf("  self time, traced rounds: %-12s %10.1f ms\n", l, res.SelfTimeMs[l])
	}
}

// printMetrics prints the metrics of defs that the run produced.
func printMetrics(res *result, defs []metricDef) {
	for _, d := range defs {
		if v, ok := res.Metrics[d.Name]; ok {
			fmt.Printf("  %-40s %14.4f %s\n", d.Name, v, d.Unit)
		}
	}
}

// runAll runs every workload in this one process.
func runAll(cfg config, asJSON bool) int {
	type doc struct {
		Settings settings  `json:"settings"`
		Results  []*result `json:"results"`
	}
	d := doc{Settings: currentSettings(cfg)}
	code := 0
	for _, w := range workloads {
		c := cfg
		c.Layers = false
		res, err := runWorkload(w, c)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hwbench: %v\n", err)
			return 1
		}
		if !res.Correct {
			code = 1
		}
		d.Results = append(d.Results, res)
		if !asJSON {
			printResult(res, endToEnd)
			printMetrics(res, perLayer)
			printSelfTimes(res)
		}
	}
	if cfg.Layers {
		layers := &result{Workload: "layers", Correct: true, Metrics: map[string]float64{}}
		if err := runLayers(layers.Metrics); err != nil {
			fmt.Fprintf(os.Stderr, "hwbench: %v\n", err)
			return 1
		}
		d.Results = append(d.Results, layers)
		if !asJSON {
			printMetrics(layers, perLayer)
		}
	}
	if asJSON {
		out, err := json.MarshalIndent(d, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "hwbench: %v\n", err)
			return 1
		}
		fmt.Printf("%s\n", out)
	} else {
		st, _ := json.Marshal(d.Settings)
		fmt.Printf("settings %s\n", st)
	}
	return code
}
