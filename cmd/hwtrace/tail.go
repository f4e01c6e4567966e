package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"sort"
	"time"

	"hwtwbg/journal"
	"hwtwbg/lockservice"
)

// The live consumer: `hwtrace tail` subscribes to a lock server's
// flight recorder with the TAIL verb and renders it either as a
// refreshing one-line-per-heartbeat summary for terminals, or with
// -raw as NDJSON for scripts and dashboards.

// rawRecord is one NDJSON record line. The json tags are the
// live-telemetry record vocabulary scripts key on;
// testdata/tail_record.golden pins one rendered line.
type rawRecord struct {
	Type string `json:"type"` // always "record"
	TS   int64  `json:"ts"`   // wall clock, nanoseconds since the Unix epoch
	Kind string `json:"kind"`
	Txn  int64  `json:"txn"`
	// Arg is the kind-specific payload: queue depth (block), wait ns
	// (grant), waited-by txn (cycle-edge), op tag (op-tag), ...
	Arg      uint64 `json:"arg,omitempty"`
	Resource string `json:"resource,omitempty"`
	RHash    uint64 `json:"rhash,omitempty"` // stable resource identity
	Mode     string `json:"mode,omitempty"`
	Shard    uint8  `json:"shard"`
	Aux      uint32 `json:"aux,omitempty"` // activation sequence, cycles, ...
	Conv     bool   `json:"conv,omitempty"`
	Try      bool   `json:"try,omitempty"`
}

// newRawRecord renders r as an NDJSON record line.
func newRawRecord(r *journal.Record) rawRecord {
	v := rawRecord{
		Type:     "record",
		TS:       r.TS,
		Kind:     r.Kind.String(),
		Txn:      r.Txn,
		Arg:      r.Arg,
		Resource: r.Resource(),
		RHash:    r.RHash,
		Shard:    r.Shard,
		Aux:      r.Aux,
		Conv:     r.Flags&journal.FlagConversion != 0,
		Try:      r.Flags&journal.FlagTry != 0,
	}
	if r.Mode != 0 {
		v.Mode = r.ModeString()
	}
	return v
}

// rawLag is one NDJSON lag line, emitted whenever a batch reports
// records lost to ring overwrite — loss is part of the stream, never
// silent.
type rawLag struct {
	Type string `json:"type"`
	Ring int    `json:"ring"`
	Lost uint64 `json:"lost"`
}

// tailSummary aggregates the stream between heartbeats for the
// terminal rendering.
type tailSummary struct {
	out io.Writer

	records, grants, blocks uint64
	commits, aborts         uint64
	waitNs                  uint64
	waitedGrants            uint64
	maxDepth                uint64
	lastRecords             uint64 // records as of the previous heartbeat

	res map[uint64]*resAgg
}

type resAgg struct {
	name     string
	waitedNs uint64
	blocks   uint64
}

func (s *tailSummary) observe(r *journal.Record) {
	s.records++
	switch r.Kind {
	case journal.KindGrant:
		s.grants++
		s.waitNs += r.Arg
		if r.Arg > 0 {
			s.waitedGrants++
			s.agg(r).waitedNs += r.Arg
		}
	case journal.KindBlock:
		s.blocks++
		if r.Arg > s.maxDepth {
			s.maxDepth = r.Arg
		}
		s.agg(r).blocks++
	case journal.KindCommit:
		s.commits++
	case journal.KindAbort:
		s.aborts++
	}
}

func (s *tailSummary) agg(r *journal.Record) *resAgg {
	if s.res == nil {
		s.res = make(map[uint64]*resAgg)
	}
	a := s.res[r.RHash]
	if a == nil {
		a = &resAgg{name: r.Resource()}
		s.res[r.RHash] = a
	}
	return a
}

// render prints one summary frame: the heartbeat's server counters plus
// the aggregates accumulated since the stream began.
func (s *tailSummary) render(hb lockservice.TailHeartbeat) {
	avgWait := time.Duration(0)
	if s.waitedGrants > 0 {
		avgWait = time.Duration(s.waitNs / s.waitedGrants)
	}
	fmt.Fprintf(s.out, "%s recs=%d (+%d) grants=%d blocks=%d commits=%d aborts=%d avg_wait=%v depth_max=%d | detector runs=%d cycles=%d aborted=%d period=%v | lag=%d\n",
		time.Now().Format("15:04:05"), s.records, s.records-s.lastRecords,
		s.grants, s.blocks, s.commits, s.aborts, avgWait, s.maxDepth,
		hb.Runs, hb.Cycles, hb.Aborted, hb.Period, hb.Lagged)
	s.lastRecords = s.records
	if len(s.res) > 0 {
		top := make([]*resAgg, 0, len(s.res))
		for _, a := range s.res {
			top = append(top, a)
		}
		sort.Slice(top, func(i, j int) bool {
			if top[i].waitedNs != top[j].waitedNs {
				return top[i].waitedNs > top[j].waitedNs
			}
			return top[i].blocks > top[j].blocks
		})
		if len(top) > 3 {
			top = top[:3]
		}
		fmt.Fprintf(s.out, "  top contended:")
		for _, a := range top {
			fmt.Fprintf(s.out, "  %s waited=%v blocks=%d", a.name, time.Duration(a.waitedNs), a.blocks)
		}
		fmt.Fprintln(s.out)
	}
}

// runTail is the tail subcommand: arguments after "tail" in, exit
// status out.
func runTail(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hwtrace tail", flag.ContinueOnError)
	fs.SetOutput(stderr)
	raw := fs.Bool("raw", false, "emit NDJSON (one object per record/heartbeat/lag) instead of the summary")
	count := fs.Int("count", 0, "exit 0 after this many records (0 = stream until interrupted)")
	from := fs.String("from", "now", "start position: now or oldest")
	interval := fs.Duration("interval", time.Second, "summary refresh / heartbeat interval")
	if err := fs.Parse(args); err != nil {
		fmt.Fprintln(stderr)
		usage(stderr)
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintf(stderr, "hwtrace tail: want exactly one server address\n\n")
		usage(stderr)
		return 2
	}
	var fromOldest bool
	switch *from {
	case "oldest":
		fromOldest = true
	case "now":
	default:
		fmt.Fprintf(stderr, "hwtrace tail: bad -from %q (want now or oldest)\n\n", *from)
		usage(stderr)
		return 2
	}
	c, err := lockservice.Dial(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "hwtrace: %v\n", err)
		return 1
	}
	defer c.Close()

	opts := lockservice.TailOptions{
		FromOldest: fromOldest,
		Max:        *count,
		Heartbeat:  *interval,
	}
	if *raw {
		enc := json.NewEncoder(stdout)
		opts.OnBatch = func(b lockservice.TailBatch) error {
			if b.Lost > 0 {
				if err := enc.Encode(rawLag{Type: "lag", Ring: b.Ring, Lost: b.Lost}); err != nil {
					return err
				}
			}
			for i := range b.Records {
				if err := enc.Encode(newRawRecord(&b.Records[i])); err != nil {
					return err
				}
			}
			return nil
		}
		opts.OnHeartbeat = func(hb lockservice.TailHeartbeat) error {
			// A heartbeat line is {"type":"heartbeat",...TailHeartbeat}.
			return enc.Encode(struct {
				Type string `json:"type"`
				lockservice.TailHeartbeat
			}{"heartbeat", hb})
		}
	} else {
		sum := &tailSummary{out: stdout}
		var lastHB lockservice.TailHeartbeat
		opts.OnBatch = func(b lockservice.TailBatch) error {
			for i := range b.Records {
				sum.observe(&b.Records[i])
			}
			return nil
		}
		opts.OnHeartbeat = func(hb lockservice.TailHeartbeat) error {
			lastHB = hb
			sum.render(hb)
			return nil
		}
		if _, err := c.TailJournal(opts); err != nil {
			fmt.Fprintf(stderr, "hwtrace: %v\n", err)
			return 1
		}
		// A bounded tail can finish before the first heartbeat; always
		// close with a frame covering everything observed.
		sum.render(lastHB)
		return 0
	}
	if _, err := c.TailJournal(opts); err != nil {
		fmt.Fprintf(stderr, "hwtrace: %v\n", err)
		return 1
	}
	return 0
}
