package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunCommitsBoth runs the example: both transfers must commit, the
// victim of the crossing lock orders (if the timing formed the
// deadlock) on a later attempt. Whether a victim is chosen depends on
// the scheduler, so the test does not ask for one.
func TestRunCommitsBoth(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, want := range []string{
		"alice->bob: holds acct/alice and acct/bob, committing",
		"bob->alice: holds acct/bob and acct/alice, committing",
		"done. detector ran",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("no %q in:\n%s", want, out.String())
		}
	}
}
