package lockservice

import (
	"errors"
	"time"

	"hwtwbg/metrics"
)

// Client-side wire metrics: every protocol verb records its round-trip
// latency into a log₂ histogram plus outcome counters, using the same
// lock-free metrics primitives as the server's shards. The aborted
// counter doubles as the retry counter — ABORTED is the one outcome the
// protocol tells clients to retry from the start.

// Verb indexes the client's per-verb metric blocks.
type Verb int

// The protocol verbs, in wire order.
const (
	VerbBegin Verb = iota
	VerbLock
	VerbLockAll
	VerbTryLock
	VerbCommit
	VerbAbort
	VerbStats
	VerbPing
	VerbTail
	numVerbs
)

var verbNames = [numVerbs]string{
	"BEGIN", "LOCK", "LOCKALL", "TRYLOCK", "COMMIT", "ABORT",
	"STATS", "PING", "TAIL",
}

func (v Verb) String() string {
	if v < 0 || v >= numVerbs {
		return "UNKNOWN"
	}
	return verbNames[v]
}

// verbMetrics is one verb's live instrumentation block.
type verbMetrics struct {
	lat     metrics.Histogram // round-trip latency, nanoseconds
	calls   metrics.Counter
	errs    metrics.Counter // transport or protocol errors
	aborted metrics.Counter // ErrAborted outcomes (the retry signal)
	busy    metrics.Counter // ErrBusy outcomes (TRYLOCK refusals)
}

// observe records one completed call on verb v. It returns err so call
// sites can tail-call it: `return c.observe(VerbLock, start, ...)`.
func (c *Client) observe(v Verb, start time.Time, err error) error {
	m := &c.vm[v]
	m.calls.Inc()
	m.lat.Observe(uint64(time.Since(start).Nanoseconds()))
	switch {
	case err == nil:
	case errors.Is(err, ErrAborted):
		m.aborted.Inc()
	case errors.Is(err, ErrBusy):
		m.busy.Inc()
	default:
		m.errs.Inc()
	}
	return err
}

// VerbMetrics is the exported snapshot of one verb's counters.
type VerbMetrics struct {
	Verb    string                    `json:"verb"`
	Calls   uint64                    `json:"calls"`
	Errors  uint64                    `json:"errors"`
	Aborted uint64                    `json:"aborted"` // deadlock victims: retries owed
	Busy    uint64                    `json:"busy"`
	Latency metrics.HistogramSnapshot `json:"-"`
	// MeanNs/P99Ns are derived from Latency for cheap exposition.
	MeanNs uint64 `json:"mean_ns"`
	P99Ns  uint64 `json:"p99_ns"`
}

// ClientMetricsSnapshot is a point-in-time copy of the client's wire
// metrics, one entry per verb that has been called at least once.
type ClientMetricsSnapshot struct {
	Verbs []VerbMetrics `json:"verbs"`
}

// Metrics snapshots the client's per-verb latency histograms and
// outcome counters. Verbs never called are omitted.
func (c *Client) Metrics() ClientMetricsSnapshot {
	var snap ClientMetricsSnapshot
	for v := Verb(0); v < numVerbs; v++ {
		m := &c.vm[v]
		calls := m.calls.Load()
		if calls == 0 {
			continue
		}
		lat := m.lat.Snapshot()
		snap.Verbs = append(snap.Verbs, VerbMetrics{
			Verb:    v.String(),
			Calls:   calls,
			Errors:  m.errs.Load(),
			Aborted: m.aborted.Load(),
			Busy:    m.busy.Load(),
			Latency: lat,
			MeanNs:  uint64(lat.Mean()),
			P99Ns:   lat.Quantile(0.99),
		})
	}
	return snap
}
