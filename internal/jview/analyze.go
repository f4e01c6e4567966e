// Package jview is the set of views over flight-recorder records: the
// offline analysis (Analyze and its SLO checks), the predictive
// near-miss pass, the deadlock postmortems and resolution history, and
// the Perfetto export. Each view is a pure function of records in
// snapshot order, so a live Journal.Snapshot, a decoded dump and the
// control ring alone read the same way; package journal, the recorder,
// knows nothing of them. cmd/hwtrace renders them and the tests of the
// manager and the lock service assert on them.
package jview

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"hwtwbg/journal"
)

// Offline analysis over a replayed journal (cmd/hwtrace). Everything
// here works from the dump alone — no live manager — so a journal
// pulled off a production box can be dissected anywhere.

// ResourceReport aggregates one resource's contention over the trace.
type ResourceReport struct {
	Resource   string `json:"resource"`    // display prefix ("…" when truncated)
	Hash       uint64 `json:"hash"`        // stable identity
	Blocks     int    `json:"blocks"`      // requests that enqueued
	Grants     int    `json:"grants"`      // grants observed
	WaitedNs   uint64 `json:"waited_ns"`   // total blocked time across grants
	MaxWaiters int    `json:"max_waiters"` // peak simultaneously outstanding blocks
	// Convoy: the queue never drained — from its first block to the end
	// of the trace at least one waiter was always outstanding (and more
	// than one block was seen), the signature of a convoy that re-forms
	// faster than it is served.
	Convoy bool `json:"convoy"`
}

// LatencyStats summarizes one latency population extracted from the
// trace: exact percentiles over every sample (offline analysis sorts
// the full population — no histogram bucketing error).
type LatencyStats struct {
	Count int           `json:"count"`
	P50   time.Duration `json:"p50_ns"`
	P95   time.Duration `json:"p95_ns"`
	P99   time.Duration `json:"p99_ns"`
	Max   time.Duration `json:"max_ns"`
}

// latencyStats computes exact percentiles; samples is sorted in place.
func latencyStats(samples []time.Duration) LatencyStats {
	st := LatencyStats{Count: len(samples)}
	if len(samples) == 0 {
		return st
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	pick := func(p float64) time.Duration {
		// Nearest-rank: the smallest sample with at least p of the
		// population at or below it, so p95 of two samples is the
		// larger one, not the smaller.
		i := int(math.Ceil(p*float64(len(samples)))) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(samples) {
			i = len(samples) - 1
		}
		return samples[i]
	}
	st.P50 = pick(0.50)
	st.P95 = pick(0.95)
	st.P99 = pick(0.99)
	st.Max = samples[len(samples)-1]
	return st
}

// Latency population keys in Report.Latencies.
const (
	// LatencyWait: time blocked before grant, per waited grant record
	// (immediate grants excluded, matching the live wait histogram).
	LatencyWait = "wait"
	// LatencyCommit / LatencyAbort: begin-to-commit / begin-to-abort
	// span per transaction whose begin record survived in the ring.
	LatencyCommit = "commit"
	LatencyAbort  = "abort"
)

// Report is the offline analysis of one journal dump. The json tags
// are the `hwtrace report -json` vocabulary that CI and dashboards
// select by name; cmd/hwtrace pins the report of its checked-in
// fixture as a golden.
type Report struct {
	Records     int           `json:"records"`
	Span        time.Duration `json:"span"` // first to last record
	Txns        int           `json:"txns"` // distinct transactions seen
	Deadlocks   int           `json:"deadlocks"`
	Victims     int           `json:"victims"`
	Repositions int           `json:"repositions"`
	// Orphans counts lifecycle records whose begin record was lost to
	// ring overwrite (or torn away): their transactions still count in
	// Txns, but no commit/abort span can be attributed to them.
	Orphans int `json:"orphans"`
	// DepthDist is the wait-chain depth distribution: DepthDist[d]
	// counts block events that enqueued at depth d (including self).
	DepthDist map[int]int `json:"depth_distribution"`
	// Latencies holds exact percentile extractions per population
	// (LatencyWait, LatencyCommit, LatencyAbort); populations with no
	// samples are omitted.
	Latencies map[string]LatencyStats `json:"latencies"`
	// Resources ranks resources by total blocked time, worst first.
	Resources []ResourceReport `json:"resources"`
	// Convoys is the subset of Resources flagged as convoys.
	Convoys []ResourceReport `json:"convoys"`
	// NearMisses is the predictive partial-order pass: lock-order
	// reversals that could have deadlocked under another schedule.
	NearMisses NearMissReport `json:"near_misses"`
	// OpTags groups waiting by application operation tag (Txn.SetTag,
	// wire `tag=`), ranked by total blocked time — a hot tag names the
	// application code path behind a contention spike. Always present
	// (empty when the trace carries no tags) so dashboards can key on it.
	OpTags []OpTagReport `json:"op_tags"`
}

// OpTagReport aggregates the wait behaviour of every transaction that
// carried one application operation tag.
type OpTagReport struct {
	Tag      uint64 `json:"tag"`
	Txns     int    `json:"txns"`   // distinct tagged transactions
	Blocks   int    `json:"blocks"` // requests that enqueued
	Grants   int    `json:"grants"`
	WaitedNs uint64 `json:"waited_ns"` // total blocked time across grants
	// Victims counts tagged transactions aborted as deadlock victims.
	Victims int `json:"victims,omitempty"`
}

// opTagReports groups wait behaviour by op tag. Two passes: the tag
// record can land in the control ring after the transaction's first
// lock traffic (wire clients often set the tag mid-transaction), so
// the txn→tag map must be complete before attribution starts.
func opTagReports(recs []journal.Record) []OpTagReport {
	out := []OpTagReport{}
	tags := map[int64]uint64{}
	for i := range recs {
		if r := &recs[i]; r.Kind == journal.KindOpTag && r.Arg != 0 {
			tags[r.Txn] = r.Arg
		}
	}
	if len(tags) == 0 {
		return out
	}
	agg := map[uint64]*OpTagReport{}
	counted := map[int64]bool{}
	for i := range recs {
		r := &recs[i]
		tag := tags[r.Txn]
		if tag == 0 {
			continue
		}
		s := agg[tag]
		if s == nil {
			s = &OpTagReport{Tag: tag}
			agg[tag] = s
		}
		if !counted[r.Txn] {
			counted[r.Txn] = true
			s.Txns++
		}
		switch r.Kind {
		case journal.KindBlock:
			s.Blocks++
		case journal.KindGrant:
			s.Grants++
			s.WaitedNs += r.Arg
		case journal.KindVictim:
			s.Victims++
		}
	}
	for _, s := range agg {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].WaitedNs != out[j].WaitedNs {
			return out[i].WaitedNs > out[j].WaitedNs
		}
		return out[i].Tag < out[j].Tag
	})
	return out
}

// Analyze replays the records (which must be in snapshot order) into a
// Report.
func Analyze(recs []journal.Record) Report {
	rep := Report{DepthDist: map[int]int{}, Latencies: map[string]LatencyStats{}}
	rep.Records = len(recs)
	if len(recs) == 0 {
		return rep
	}
	first, last := recs[0].TS, recs[0].TS
	txns := map[int64]bool{}
	begins := map[int64]int64{} // txn -> begin TS (spans need both ends)
	var waits, commits, aborts []time.Duration
	type resState struct {
		ResourceReport
		outstanding  int
		everBlocked  bool
		drainedAfter bool // outstanding returned to 0 after the first block
	}
	res := map[uint64]*resState{}
	get := func(r *journal.Record) *resState {
		s := res[r.RHash]
		if s == nil {
			s = &resState{ResourceReport: ResourceReport{Resource: r.Resource(), Hash: r.RHash}}
			res[r.RHash] = s
		}
		return s
	}
	for i := range recs {
		r := &recs[i]
		if r.TS < first {
			first = r.TS
		}
		if r.TS > last {
			last = r.TS
		}
		if r.Txn != 0 {
			switch r.Kind {
			case journal.KindBegin, journal.KindRequest, journal.KindBlock, journal.KindGrant, journal.KindAbort, journal.KindCommit:
				txns[r.Txn] = true
			}
		}
		switch r.Kind {
		case journal.KindBegin:
			begins[r.Txn] = r.TS
		case journal.KindCommit, journal.KindAbort:
			// A lifecycle span needs both ends; a begin lost to ring
			// overwrite leaves an orphan we count rather than mis-attribute
			// (a zero-based span would poison the percentiles).
			if beg, ok := begins[r.Txn]; ok {
				if span := r.TS - beg; span >= 0 {
					if r.Kind == journal.KindCommit {
						commits = append(commits, time.Duration(span))
					} else {
						aborts = append(aborts, time.Duration(span))
					}
				}
				delete(begins, r.Txn)
			} else {
				rep.Orphans++
			}
		case journal.KindBlock:
			rep.DepthDist[int(r.Arg)]++
			s := get(r)
			s.Blocks++
			s.outstanding++
			s.everBlocked = true
			s.drainedAfter = false
			if s.outstanding > s.MaxWaiters {
				s.MaxWaiters = s.outstanding
			}
		case journal.KindGrant:
			s := get(r)
			s.Grants++
			s.WaitedNs += r.Arg
			if r.Arg > 0 {
				waits = append(waits, time.Duration(r.Arg))
				if s.outstanding > 0 {
					s.outstanding--
					if s.outstanding == 0 {
						s.drainedAfter = true
					}
				}
			}
		case journal.KindDetect:
			if r.Aux > 0 {
				rep.Deadlocks += int(r.Aux)
			}
		case journal.KindVictim:
			rep.Victims++
		case journal.KindReposition:
			rep.Repositions++
		}
	}
	rep.Span = time.Duration(last - first)
	rep.Txns = len(txns)
	for _, s := range res {
		if s.Blocks == 0 {
			continue
		}
		s.Convoy = s.everBlocked && !s.drainedAfter && s.Blocks > 1
		rep.Resources = append(rep.Resources, s.ResourceReport)
	}
	sort.Slice(rep.Resources, func(i, j int) bool {
		a, b := rep.Resources[i], rep.Resources[j]
		if a.WaitedNs != b.WaitedNs {
			return a.WaitedNs > b.WaitedNs
		}
		if a.Blocks != b.Blocks {
			return a.Blocks > b.Blocks
		}
		return a.Hash < b.Hash
	})
	for _, r := range rep.Resources {
		if r.Convoy {
			rep.Convoys = append(rep.Convoys, r)
		}
	}
	for key, samples := range map[string][]time.Duration{
		LatencyWait: waits, LatencyCommit: commits, LatencyAbort: aborts,
	} {
		if len(samples) > 0 {
			rep.Latencies[key] = latencyStats(samples)
		}
	}
	rep.NearMisses = NearMisses(recs)
	rep.OpTags = opTagReports(recs)
	return rep
}

// WriteReport renders the analysis as text for terminals.
func (rep Report) WriteReport(w io.Writer) {
	fmt.Fprintf(w, "journal: %d records over %v, %d transactions\n", rep.Records, rep.Span, rep.Txns)
	fmt.Fprintf(w, "detector: %d cycles resolved (%d victims, %d repositions)\n", rep.Deadlocks, rep.Victims, rep.Repositions)
	if rep.Orphans > 0 {
		fmt.Fprintf(w, "ring loss: %d lifecycle records orphaned (begin overwritten); spans for them omitted\n", rep.Orphans)
	}
	if len(rep.Latencies) > 0 {
		fmt.Fprintf(w, "\nlatency percentiles:\n")
		for _, key := range []string{LatencyWait, LatencyCommit, LatencyAbort} {
			ls, ok := rep.Latencies[key]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "  %-7s n=%-8d p50=%-12v p95=%-12v p99=%-12v max=%v\n",
				key, ls.Count, ls.P50, ls.P95, ls.P99, ls.Max)
		}
	}
	if len(rep.DepthDist) > 0 {
		fmt.Fprintf(w, "\nwait-chain depth at enqueue:\n")
		var depths []int
		maxN := 0
		for d, n := range rep.DepthDist {
			depths = append(depths, d)
			if n > maxN {
				maxN = n
			}
		}
		sort.Ints(depths)
		for _, d := range depths {
			n := rep.DepthDist[d]
			bar := n * 40 / maxN
			if bar == 0 {
				bar = 1
			}
			fmt.Fprintf(w, "  depth %-3d %8d %s\n", d, n, strings.Repeat("#", bar))
		}
	}
	if len(rep.Resources) > 0 {
		fmt.Fprintf(w, "\ncontention ranking (by total blocked time):\n")
		top := rep.Resources
		if len(top) > 20 {
			top = top[:20]
		}
		for i, r := range top {
			convoy := ""
			if r.Convoy {
				convoy = "  CONVOY"
			}
			fmt.Fprintf(w, "  %2d. %-24s blocks=%-6d grants=%-6d waited=%-12v peak_waiters=%d%s\n",
				i+1, r.Resource, r.Blocks, r.Grants, time.Duration(r.WaitedNs), r.MaxWaiters, convoy)
		}
	}
	if len(rep.Convoys) > 0 {
		fmt.Fprintf(w, "\nconvoy suspects (queue never drained after first block):\n")
		for _, r := range rep.Convoys {
			fmt.Fprintf(w, "  %-24s blocks=%d peak_waiters=%d\n", r.Resource, r.Blocks, r.MaxWaiters)
		}
	}
	if len(rep.OpTags) > 0 {
		fmt.Fprintf(w, "\nop-tag ranking (by total blocked time):\n")
		top := rep.OpTags
		if len(top) > 20 {
			top = top[:20]
		}
		for i, t := range top {
			fmt.Fprintf(w, "  %2d. tag=%-20d txns=%-6d blocks=%-6d waited=%-12v victims=%d\n",
				i+1, t.Tag, t.Txns, t.Blocks, time.Duration(t.WaitedNs), t.Victims)
		}
	}
	if rep.NearMisses.TxnsAnalyzed > 0 || len(rep.NearMisses.Reversals) > 0 {
		fmt.Fprintf(w, "\n")
		rep.NearMisses.WriteReport(w)
	}
}
