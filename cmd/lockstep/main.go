// Lockstep replays a lock-scenario script against the lock table,
// echoing each statement, the grant/block outcome, and any dump/graph/
// detect output — the paper's worked examples as runnable artifacts.
// With -format it replays silently instead and renders the final
// state's H/W-TWBG: as Graphviz DOT, as an edge list, as a full
// analysis with TRRPs, elementary cycles and the detector's victim
// decision, or as a step-by-step trace of the periodic algorithm's walk
// (the way the paper narrates its examples).
//
// Usage:
//
//	lockstep [-q] [-format dot|edges|analyze|trace] <scenario.lock>...
//	lockstep -            # read a scenario from stdin
//
// The scenario language is documented in internal/script. The testdata
// directory ships the paper's Examples 3.1, 4.1 and 5.1, and Example
// 5.1's deadlocked state without the detect statement for -format:
//
//	lockstep testdata/example41.lock
//	lockstep -format analyze testdata/example51_raw.lock
//	lockstep -format trace testdata/example51_raw.lock
//
// Piping -format dot through `dot -Tsvg` draws Figures 4.1, 4.2 and 5.2
// of the paper.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"hwtwbg/internal/detect"
	"hwtwbg/internal/script"
	"hwtwbg/internal/twbg"
)

func main() {
	quiet := flag.Bool("q", false, "suppress statement echo; print only dump/graph/detect output")
	format := flag.String("format", "", "replay silently and render the final state: dot, edges, analyze, or trace")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: lockstep [-q] [-format dot|edges|analyze|trace] <scenario.lock>... (or - for stdin)\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	for _, path := range flag.Args() {
		if err := run(os.Stdout, path, *quiet, *format); err != nil {
			fmt.Fprintf(os.Stderr, "lockstep: %v\n", err)
			os.Exit(1)
		}
	}
}

// renderers are the -format views of a replayed scenario's final state.
var renderers = map[string]func(io.Writer, *script.Executor){
	"dot": func(out io.Writer, e *script.Executor) { fmt.Fprint(out, twbg.Build(e.Table).DOT()) },
	"edges": func(out io.Writer, e *script.Executor) {
		for _, edge := range twbg.Build(e.Table).Edges() {
			fmt.Fprintln(out, edge)
		}
	},
	"analyze": analyze,
	"trace":   trace,
}

// run replays the scenario at path (- for stdin). With an empty format
// it prints as it goes; otherwise the replay's own output is discarded
// and format's renderer prints the final state.
func run(out io.Writer, path string, quiet bool, format string) error {
	render, ok := renderers[format]
	if format != "" && !ok {
		return fmt.Errorf("unknown format %q", format)
	}
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	stmts, err := script.Parse(r)
	if err != nil {
		return err
	}
	if render == nil {
		e := script.NewExecutor(out)
		e.Echo = !quiet
		return e.Run(stmts)
	}
	e := script.NewExecutor(io.Discard)
	if err := e.Run(stmts); err != nil {
		return err
	}
	render(out, e)
	return nil
}

// trace replays the periodic algorithm on a copy of the final state,
// printing every step.
func trace(out io.Writer, e *script.Executor) {
	fmt.Fprintln(out, "== lock table ==")
	fmt.Fprint(out, e.Table.String())
	fmt.Fprintln(out, "\n== periodic-detection-resolution trace ==")
	cp := e.Table.Clone()
	res := detect.New(cp, detect.Config{
		Costs: e.Costs,
		Trace: func(ev detect.TraceEvent) { fmt.Fprintln(out, ev) },
	}).Run()
	fmt.Fprintf(out, "\n== result: c'=%d aborted=%v salvaged=%v repositioned=%v ==\n",
		res.CyclesSearched, res.Aborted, res.Salvaged, res.Repositioned)
	fmt.Fprintln(out, "== table after resolution ==")
	fmt.Fprint(out, cp.String())
}

func analyze(out io.Writer, e *script.Executor) {
	g := twbg.Build(e.Table)
	fmt.Fprintln(out, "== lock table ==")
	fmt.Fprint(out, e.Table.String())
	fmt.Fprintf(out, "\n== H/W-TWBG: %d vertices, %d edges ==\n", len(g.Vertices()), g.NumEdges())
	for _, edge := range g.Edges() {
		fmt.Fprintln(out, edge)
	}
	fmt.Fprintln(out, "\n== TRRPs ==")
	for _, p := range g.TRRPs() {
		fmt.Fprintf(out, "%v  (resource %s)\n", p, string(p.Resource))
	}
	cycles := g.Cycles(64)
	fmt.Fprintf(out, "\n== elementary cycles: %d ==\n", len(cycles))
	for _, c := range cycles {
		for i, v := range c {
			if i > 0 {
				fmt.Fprint(out, " -> ")
			}
			fmt.Fprint(out, v)
		}
		fmt.Fprintln(out)
	}
	if len(cycles) == 0 {
		fmt.Fprintln(out, "(deadlock free)")
		return
	}
	fmt.Fprintln(out, "\n== periodic-detection-resolution on a copy ==")
	cp := e.Table.Clone()
	res := detect.New(cp, detect.Config{Costs: e.Costs}).Run()
	fmt.Fprintf(out, "cycles searched (c'): %d\n", res.CyclesSearched)
	fmt.Fprintf(out, "aborted:   %v\n", res.Aborted)
	fmt.Fprintf(out, "salvaged:  %v\n", res.Salvaged)
	for _, rp := range res.Repositioned {
		fmt.Fprintf(out, "TDR-2:     %v\n", rp)
	}
	fmt.Fprintf(out, "granted:   %v\n", res.Granted)
	fmt.Fprintln(out, "\n== table after resolution ==")
	fmt.Fprint(out, cp.String())
}
