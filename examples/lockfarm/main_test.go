package main

import (
	"bytes"
	"regexp"
	"strconv"
	"testing"
)

// TestRunCommitsEveryJob runs the example against its in-process
// server: every one of the workers' jobs must commit, at least one must
// have been a deadlock victim that retried, and each transaction the
// server's detector aborted must be an ABORTED reply a client saw and
// retried, no more and no fewer.
func TestRunCommitsEveryJob(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	s := out.String()
	jobs := regexp.MustCompile(`committed (\d+) jobs across \d+ workers with (\d+) deadlock retries`).FindStringSubmatch(s)
	server := regexp.MustCompile(`server detector: \d+ runs, \d+ cycles found, (\d+) aborts`).FindStringSubmatch(s)
	if jobs == nil || server == nil {
		t.Fatalf("no summary lines in:\n%s", s)
	}
	if got, want := jobs[1], strconv.Itoa(workers*jobsEach); got != want {
		t.Errorf("committed %s jobs, want %s:\n%s", got, want, s)
	}
	if jobs[2] == "0" {
		t.Errorf("no deadlock victim retried:\n%s", s)
	}
	if retries, aborts := jobs[2], server[1]; retries != aborts {
		t.Errorf("clients retried %s ABORTED jobs, the server aborted %s victims:\n%s", retries, aborts, s)
	}
}
