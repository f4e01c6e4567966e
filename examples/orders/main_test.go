package main

import (
	"bytes"
	"regexp"
	"strconv"
	"testing"
)

// TestRunBalancesBooks runs the example's seeded workload: every order
// must be placed, and every audit — the concurrent ones and the final
// one — must find reserved + remaining == initial stock per item (run
// returns an error otherwise).
func TestRunBalancesBooks(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	m := regexp.MustCompile(`placed (\d+) orders across \d+ workers; every audit balanced`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no summary line in:\n%s", out.String())
	}
	if got, want := m[1], strconv.Itoa(workers*ordersEach); got != want {
		t.Errorf("placed %s orders, want %s", got, want)
	}
}
