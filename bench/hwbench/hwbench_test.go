package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestSmoke runs every workload at a hundredth of its size with the output
// checks on, traced, so every code path of a real run is exercised.
func TestSmoke(t *testing.T) {
	cfg := config{Seed: 1, Rounds: 4, small: true, setups: 1, Trace: true, OutDir: t.TempDir()}
	for _, w := range workloads {
		res, err := runWorkload(w, cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d violations=%v", w.name, res.Correct, res.Attempted, res.Failed, res.Violations)
		}
		for _, d := range endToEnd {
			if v, ok := res.Metrics[d.Name]; !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.Name, v)
			}
		}
		if res.Metrics["trace.spans"] == 0 {
			t.Errorf("%s: traced run recorded no spans", w.name)
		}
		if _, err := os.Stat(cfg.OutDir + "/trace-" + w.name + ".json"); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}

// TestNamesMatchBenchmarkJSON holds the names, units, directions and bounds
// the program emits equal to BENCHMARK.json, in both directions.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metricDef                  `json:"end_to_end"`
		PerLayer  []metricDef                  `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var inFile, inProgram []string
	for _, w := range doc.Workloads {
		inFile = append(inFile, w.Name+": "+w.Why)
	}
	for _, w := range workloads {
		inProgram = append(inProgram, w.name+": "+w.why)
	}
	compare(t, "workloads", inFile, inProgram)
	compare(t, "end_to_end", keys(doc.EndToEnd), keys(endToEnd))
	compare(t, "per_layer", keys(doc.PerLayer), keys(perLayer))
	if n := len(perLayer); n > 128 {
		t.Errorf("%d per-layer metrics, the limit is 128", n)
	}
}

func keys(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		b, _ := json.Marshal(d)
		out = append(out, string(b))
	}
	return out
}

func compare(t *testing.T, what string, inFile, inProgram []string) {
	t.Helper()
	sort.Strings(inFile)
	sort.Strings(inProgram)
	seen := map[string]bool{}
	for _, s := range inFile {
		seen[s] = true
	}
	for _, s := range inProgram {
		if !seen[s] {
			t.Errorf("%s: the program has %s, BENCHMARK.json does not", what, s)
		}
		delete(seen, s)
	}
	for s := range seen {
		t.Errorf("%s: BENCHMARK.json has %s, the program does not", what, s)
	}
}
