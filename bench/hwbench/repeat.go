package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runRepeat is the repeatability self-check: for each workload, two sets of
// n runs of this same binary, each run a fresh process, interleaved A B B A
// so slow drift of the host lands on both sets. Run i of either set takes
// seed 1000*seed+i, as the driver gives every run another seed. For every
// end-to-end metric it prints each set's median and quartiles, the spread
// (interquartile range over median) and the gap between the set medians. It
// fails by the rule the driver accepts a benchmark by: no gap beyond the
// metric's bound, and no spread beyond it either, except that setup_s, which
// is in seconds and has no reference to be divided by, only has a spread
// beyond its bound pointed out.
func runRepeat(n int, only string, cfg config) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "hwbench: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		if only != "" && w.name != only {
			continue
		}
		var sets [2]map[string][]float64
		sets[0], sets[1] = map[string][]float64{}, map[string][]float64{}
		for i := 0; i < 2*n; i++ {
			set := [4]int{0, 1, 1, 0}[i%4]
			c := cfg
			c.Seed = 1000*cfg.Seed + int64(len(sets[set]["setup_s"]))
			line, err := freshRun(exe, w.name, c)
			if err != nil {
				fmt.Fprintf(os.Stderr, "hwbench: %s run %d: %v\n", w.name, i+1, err)
				return 1
			}
			if !line.Correct || line.Failed != 0 {
				fmt.Printf("%s run %d: correct=%v failed=%d\n", w.name, i+1, line.Correct, line.Failed)
				code = 1
			}
			for name, v := range line.Metrics {
				sets[set][name] = append(sets[set][name], v.Value)
			}
		}
		fmt.Printf("%s  seeds %d to %d  2 sets of %d runs\n", w.name, 1000*cfg.Seed, 1000*cfg.Seed+int64(n)-1, n)
		fmt.Printf("  %-16s %-6s %12s %12s %12s %8s | %12s %12s %12s %8s | %7s %6s\n",
			"metric", "unit", "A q1", "A median", "A q3", "spread", "B q1", "B median", "B q3", "spread", "gap", "bound")
		for _, d := range endToEnd {
			a, b := quartiles(sets[0][d.Name]), quartiles(sets[1][d.Name])
			gap := (b[1] - a[1]) / a[1]
			if d.Better == higher {
				gap = -gap
			}
			verdict := ""
			spreadA, spreadB := (a[2]-a[0])/a[1], (b[2]-b[0])/b[1]
			if gap > d.Bound || -gap > d.Bound {
				verdict = "  GAP EXCEEDS BOUND"
				code = 1
			} else if spreadA > d.Bound || spreadB > d.Bound {
				if d.Name == "setup_s" {
					verdict = "  spread exceeds bound (shown, not failed)"
				} else {
					verdict = "  SPREAD EXCEEDS BOUND"
					code = 1
				}
			}
			fmt.Printf("  %-16s %-6s %12.4f %12.4f %12.4f %7.2f%% | %12.4f %12.4f %12.4f %7.2f%% | %+6.2f%% %5.0f%%%s\n",
				d.Name, d.Unit, a[0], a[1], a[2], 100*spreadA, b[0], b[1], b[2], 100*spreadB, 100*gap, 100*d.Bound, verdict)
		}
	}
	return code
}

// freshRun runs one workload in a new process and parses its last line.
func freshRun(exe, name string, cfg config) (*resultLine, error) {
	cmd := exec.Command(exe, "-workload", name, "-trace", "0",
		"-seed", strconv.FormatInt(cfg.Seed, 10),
		"-seconds", strconv.FormatFloat(cfg.Seconds, 'g', -1, 64),
		"-rounds", strconv.Itoa(cfg.Rounds))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output() // waits for the process to end
	if err != nil {
		return nil, err
	}
	var last []byte
	for sc := bufio.NewScanner(bytes.NewReader(out)); sc.Scan(); {
		last = append(last[:0], sc.Bytes()...)
	}
	var line resultLine
	if err := json.Unmarshal(last, &line); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &line, nil
}

// quartiles returns q1, median and q3 by the method of Python's
// statistics.quantiles(v, n=4) (exclusive), which the driver uses.
func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	var q [3]float64
	if n == 0 {
		return q
	}
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1)) - float64(j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}
