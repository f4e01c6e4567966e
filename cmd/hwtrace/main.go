// Hwtrace replays a flight-recorder dump offline: no live manager is
// needed, so a journal pulled off a production box (curl the debug
// server's /journal.bin, or journal.Encode a Client.DumpJournal result)
// can be dissected anywhere.
//
//	hwtrace report journal.bin        # depths, convoys, contention, latency percentiles, near misses
//	hwtrace report -json journal.bin  # the same analysis as JSON
//	hwtrace report -slo p99=1ms journal.bin         # SLO gate: exit 1 when violated
//	hwtrace report -slo commit:p95=10ms journal.bin # ([kind:]pNN=dur, comma-separated)
//	hwtrace nearmiss journal.bin      # predictive partial-order pass alone
//	hwtrace postmortems journal.bin   # each resolved deadlock: cycle, edge evidence, participant tail
//	hwtrace postmortems -json journal.bin  # the same view as JSON
//	hwtrace perfetto journal.bin > trace.json   # convert for ui.perfetto.dev
//	curl -s localhost:7655/journal.bin | hwtrace perfetto - > trace.json
//	hwtrace cat journal.bin           # print every record, one per line
//	hwtrace tail localhost:7679       # live: refreshing summary off the TAIL stream
//	hwtrace tail -raw -count 100 localhost:7679  # live: NDJSON, stop after 100 records
//
// The offline subcommands read the binary dump format (magic HWJRNL01;
// see journal.Encode); "-" reads from stdin. The tail subcommand speaks
// the lockservice TAIL verb against a live server instead.
//
// Exit status: 0 on success, 1 on analysis errors or violated SLOs,
// 2 on usage errors (unknown subcommand, bad flags, missing dump).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"hwtwbg/internal/jview"
	"hwtwbg/journal"
)

func usage(w io.Writer) {
	fmt.Fprintf(w, `usage:
  hwtrace report [-json] [-slo spec] <dump>
                                  offline analysis: depth distribution, convoy
                                  detection, per-resource contention ranking,
                                  latency percentiles, near-miss reversals;
                                  -slo gates on [kind:]pNN=duration objectives
                                  (kinds wait|commit|abort, default wait;
                                  comma-separated; exit 1 on violation)
  hwtrace nearmiss [-json] <dump> the predictive partial-order pass alone:
                                  cross-transaction lock-order reversals that
                                  never deadlocked in the observed schedule
  hwtrace postmortems [-json] <dump>
                                  deadlock postmortems rebuilt from the dump: per
                                  resolved cycle the victim (or TDR-2 junction),
                                  the edges with the grants and blocks that
                                  formed them, and the participants' event tail;
                                  resolutions whose records were partly
                                  overwritten are counted, not shown
  hwtrace perfetto <dump>         convert to Chrome trace-event/Perfetto JSON
  hwtrace cat <dump>              print records one per line
  hwtrace tail [-raw] [-count n] [-from now|oldest] [-interval d] <addr>
                                  live-tail a lock server's flight recorder over
                                  the TAIL verb: a refreshing summary (grant and
                                  block rates, wait-chain depth, detector
                                  activity, top contended resources), or with
                                  -raw one NDJSON object per record/heartbeat;
                                  -count n exits 0 after n records

<dump> is a binary journal dump (debug server /journal.bin); "-" = stdin.
<addr> is a live lock server (host:port).
`)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole tool behind a testable seam: arguments in, exit
// status out, nothing reads globals or calls os.Exit.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	cmd := args[0]
	switch cmd {
	case "report", "nearmiss", "postmortems", "perfetto", "cat":
	case "tail":
		return runTail(args[1:], stdout, stderr)
	default:
		fmt.Fprintf(stderr, "hwtrace: unknown subcommand %q\n\n", cmd)
		usage(stderr)
		return 2
	}
	fs := flag.NewFlagSet("hwtrace "+cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	var asJSON *bool
	var sloSpec *string
	if cmd == "report" || cmd == "nearmiss" || cmd == "postmortems" {
		asJSON = fs.Bool("json", false, "emit the analysis as JSON")
	}
	if cmd == "report" {
		sloSpec = fs.String("slo", "", "latency objectives to gate on: [kind:]pNN=duration, comma-separated")
	}
	if err := fs.Parse(args[1:]); err != nil {
		// flag already printed the complaint to stderr.
		fmt.Fprintln(stderr)
		usage(stderr)
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintf(stderr, "hwtrace %s: want exactly one dump argument\n\n", cmd)
		usage(stderr)
		return 2
	}
	var slos []jview.SLO
	if sloSpec != nil && *sloSpec != "" {
		var err error
		if slos, err = jview.ParseSLOs(*sloSpec); err != nil {
			fmt.Fprintf(stderr, "hwtrace: %v\n\n", err)
			usage(stderr)
			return 2
		}
	}
	recs, err := load(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "hwtrace: %v\n", err)
		return 1
	}
	jsonOut := asJSON != nil && *asJSON
	code, err := execute(cmd, jsonOut, slos, recs, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "hwtrace: %v\n", err)
		return 1
	}
	return code
}

// execute runs one validated subcommand over already-loaded records,
// returning the exit status (0, or 1 for a violated SLO).
func execute(cmd string, asJSON bool, slos []jview.SLO, recs []journal.Record, out io.Writer) (int, error) {
	writeJSON := func(v any) error {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	}
	switch cmd {
	case "report":
		rep := jview.Analyze(recs)
		results := rep.CheckSLOs(slos)
		if asJSON {
			doc := struct {
				jview.Report
				SLOs []jview.SLOResult `json:"slos,omitempty"`
			}{Report: rep, SLOs: results}
			if err := writeJSON(doc); err != nil {
				return 1, err
			}
		} else {
			rep.WriteReport(out)
			if len(results) > 0 {
				fmt.Fprintln(out)
				jview.WriteSLOResults(out, results)
			}
		}
		for _, r := range results {
			if !r.OK {
				return 1, nil
			}
		}
	case "nearmiss":
		rep := jview.NearMisses(recs)
		if asJSON {
			return 0, writeJSON(rep)
		}
		rep.WriteReport(out)
	case "postmortems":
		pms, incomplete := jview.Postmortems(recs)
		if asJSON {
			return 0, writeJSON(struct {
				Incomplete  int                `json:"incomplete"`
				Postmortems []jview.Postmortem `json:"postmortems"`
			}{incomplete, pms})
		}
		writePostmortems(out, pms, incomplete)
	case "perfetto":
		return 0, jview.WriteTrace(out, recs)
	case "cat":
		for i := range recs {
			fmt.Fprintf(out, "%s %s\n", recs[i].Time().Format("15:04:05.000000"), recs[i].String())
		}
	}
	return 0, nil
}

// writePostmortems renders the postmortem view as text for terminals:
// one line per resolved cycle, one per edge (-json has the evidence).
func writePostmortems(w io.Writer, pms []jview.Postmortem, incomplete int) {
	fmt.Fprintf(w, "deadlock postmortems: %d resolved cycles reconstructed, %d incomplete (records overwritten)\n", len(pms), incomplete)
	for _, pm := range pms {
		how := "aborted"
		if pm.TDR2 {
			how = "repositioned " + pm.Resource + " at junction"
		}
		fmt.Fprintf(w, "activation %d at %s: %s T%d (tail %d events, op_tags %v)\n",
			pm.Activation, pm.Time.Format("15:04:05.000000"), how, pm.Victim, len(pm.Tail), pm.OpTags)
		for _, e := range pm.Cycle {
			fmt.Fprintf(w, "  T%d waited by T%d on %s (%s), %d evidence events\n", e.From, e.To, e.Resource, e.Mode, len(e.Evidence))
		}
	}
}

// load reads one binary journal dump ("-" = stdin).
func load(path string) ([]journal.Record, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	return journal.Decode(r)
}
