package main

import (
	"os"
	"strings"
	"testing"

	"hwtwbg/internal/sim"
)

// quickCfg keeps the smoke test fast.
var quickCfg = sim.Config{
	Terminals: 4,
	Resources: 8,
	TxnLength: 4,
	WriteFrac: 0.5,
	HotProb:   0.5,
	Period:    10,
	Duration:  800,
	Seed:      3,
}

func TestEmitTables(t *testing.T) {
	for name, want := range map[string]string{
		"compare":    "strategy",
		"latency":    "mean persistence",
		"tdr2":       "TDR-2 repositionings",
		"sweep":      "multiprogramming-level sweep",
		"prevention": "detection vs prevention",
		"complexity": "detector scaling",
		"period":     "period trade-off",
	} {
		var out strings.Builder
		if !emit(&out, name, quickCfg) {
			t.Fatalf("emit(%q) unrecognized", name)
		}
		if !strings.Contains(out.String(), want) {
			t.Errorf("table %q missing %q:\n%s", name, want, out.String())
		}
	}
}

// TestTablesGolden pins E9–E18: every simulator table at default flags
// and -duration 2000 must print byte for byte what testdata/tables.golden
// holds. complexity is left out because its time column is wall clock.
// Regenerate with
//
//	for t in compare latency tdr2 sweep prevention period; do
//		go run ./cmd/parksim -table $t -duration 2000
//	done > cmd/parksim/testdata/tables.golden
func TestTablesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/tables.golden")
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig()
	cfg.Duration = 2000
	var out strings.Builder
	for _, name := range []string{"compare", "latency", "tdr2", "sweep", "prevention", "period"} {
		emit(&out, name, cfg)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("tables drifted from testdata/tables.golden:\n%s", got)
	}
}

func TestEmitUnknown(t *testing.T) {
	var out strings.Builder
	if emit(&out, "nope", quickCfg) {
		t.Fatal("unknown table accepted")
	}
}
