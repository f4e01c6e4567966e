package main

import (
	"os"
	"strings"
	"testing"
)

const td = "../../testdata/"

func TestLockstepExample41(t *testing.T) {
	var out strings.Builder
	if err := run(&out, td+"example41.lock", true, ""); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"R1(SIX): Holder((T1, IX, SIX) (T2, IS, S) (T3, IX, NL) (T4, IS, NL)) Queue((T5, IX) (T6, S) (T7, IX))",
		"detect: cycles=1 aborted=[] salvaged=[] repositioned=[R2: AV[(T9, IX) (T3, S)] ST[(T8, X)]]",
		"R2(IX): Holder((T9, IX, NL) (T7, IS, NL)) Queue((T3, S) (T8, X) (T4, X))",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestLockstepEchoMode(t *testing.T) {
	var out strings.Builder
	if err := run(&out, td+"example31.lock", false, ""); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"> lock T1 R1 IS", "granted", "blocked"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestLockstepExample51(t *testing.T) {
	var out strings.Builder
	if err := run(&out, td+"example51.lock", true, ""); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"detect: cycles=2 aborted=[T2] salvaged=[T3]",
		"R1(S): Holder((T3, S, NL) (T1, S, NL)) Queue()",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestLockstepMissingFile(t *testing.T) {
	var out strings.Builder
	if err := run(&out, td+"nope.lock", true, ""); err == nil {
		t.Fatal("missing file must fail")
	}
}

// checkGolden runs a scenario with format and compares the output with
// testdata/golden/<golden>.txt. Regenerate a golden with the command
// line it pins, e.g. `go run ./cmd/lockstep -format trace
// testdata/example51_raw.lock > testdata/golden/example51_raw.trace.txt`.
func checkGolden(t *testing.T, scenario, format, golden string) {
	t.Helper()
	var out strings.Builder
	if err := run(&out, td+scenario+".lock", true, format); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(td + "golden/" + golden + ".txt")
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Errorf("output differs from golden file:\n--- got ---\n%s--- want ---\n%s", out.String(), want)
	}
}

// TestGoldenOutputs locks the full -q output of every shipped scenario
// against golden files; any change to the scheduling policy, graph
// construction or detector behavior that alters the paper-facing output
// shows up here.
func TestGoldenOutputs(t *testing.T) {
	for _, name := range []string{
		"example31", "example41", "example51", "conversion_deadlock", "hotqueue",
	} {
		t.Run(name, func(t *testing.T) { checkGolden(t, name, "", name) })
	}
}

// The -format tests render Example 5.1's deadlocked state (the
// scenario without its detect statement), so the views see the
// deadlock: Figure 5.2's two cycles and the run that aborts T2 and
// salvages T3.

func TestDotFormat(t *testing.T) {
	var out strings.Builder
	if err := run(&out, td+"example51_raw.lock", true, "dot"); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"digraph HWTWBG",
		`T2 -> T3 [label="W@R1", style=dashed];`,
		`T3 -> T1 [label="H@R2", style=solid];`,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("DOT output missing %q:\n%s", want, s)
		}
	}
}

func TestEdgesFormat(t *testing.T) {
	var out strings.Builder
	if err := run(&out, td+"example51_raw.lock", true, "edges"); err != nil {
		t.Fatal(err)
	}
	if want := "T1->T2[H@R1]\nT2->T3[W@R1]\nT2->T1[H@R2]\nT3->T1[H@R2]\n"; out.String() != want {
		t.Errorf("edges:\n%s\nwant:\n%s", out.String(), want)
	}
}

func TestAnalyzeFormatOnUnresolvedScenario(t *testing.T) {
	checkGolden(t, "example51_raw", "analyze", "example51_raw.analyze")
}

func TestTraceFormat(t *testing.T) {
	checkGolden(t, "example51_raw", "trace", "example51_raw.trace")
}

// TestAnalyzeDeadlockFree: example31.lock ends with T1's conversion
// blocked behind T2, which waits for nobody.
func TestAnalyzeDeadlockFree(t *testing.T) {
	var out strings.Builder
	if err := run(&out, td+"example31.lock", true, "analyze"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "(deadlock free)") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestBadInputs(t *testing.T) {
	var out strings.Builder
	if err := run(&out, td+"example31.lock", true, "nope"); err == nil {
		t.Error("unknown format must fail")
	}
	if err := run(&out, td+"missing.lock", true, "dot"); err == nil {
		t.Error("missing file must fail")
	}
	if out.Len() != 0 {
		t.Errorf("failed runs printed:\n%s", out.String())
	}
}
