package main

import (
	"bytes"
	"os"
	"testing"
)

// TestRunMatchesGolden runs the example and compares its narration with
// testdata/run.golden: the snapshots of each scene, the SIX table lock
// holding back the row write, and the intention-lock deadlock found and
// broken by one Detect call with one victim. The example has no timer
// and no random draw, so the output is the same on every run.
// Regenerate with `go run ./examples/hierarchy >
// examples/hierarchy/testdata/run.golden`.
func TestRunMatchesGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	want, err := os.ReadFile("testdata/run.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("output differs from testdata/run.golden:\n--- got ---\n%s--- want ---\n%s", out.String(), want)
	}
}
