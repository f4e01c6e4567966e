package main

import (
	"bytes"
	"regexp"
	"strconv"
	"testing"
)

// TestRunConservesMoney runs the example's seeded workload: every
// transfer must commit, the total balance must be what it started as,
// and at least one transfer must have been a deadlock victim that
// retried, so the S→X conversion deadlocks were actually formed and
// broken.
func TestRunConservesMoney(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	m := regexp.MustCompile(`committed (\d+) transfers with (\d+) deadlock retries`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no summary line in:\n%s", out.String())
	}
	if got, want := m[1], strconv.Itoa(workers*transfersEach); got != want {
		t.Errorf("committed %s transfers, want %s", got, want)
	}
	if retries, _ := strconv.Atoi(m[2]); retries < 1 {
		t.Errorf("no deadlock victim retried:\n%s", out.String())
	}
}
