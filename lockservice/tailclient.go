package lockservice

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"hwtwbg/journal"
)

// Client side of the TAIL verb: subscribe to the server's flight
// recorder and consume records as they are emitted, with a resumable
// per-ring cursor and explicit lag accounting.

// ErrStopTail, returned from a TailOptions callback, ends the tail from
// the consumer's side: TailJournal returns the resume cursor with a nil
// error. After stopping an unbounded tail this way the server is still
// streaming, so the connection is no longer usable for other verbs —
// Close it and resume on a fresh one with the returned cursor.
var ErrStopTail = errors.New("lockservice: stop tail")

// TailCursor is a resumable tail position: one sequence per server
// journal ring, in ring order. The zero (nil) cursor means "no previous
// session"; TailOptions.FromOldest then picks the starting edge.
type TailCursor []uint64

// String renders the cursor in the wire's comma-separated form.
func (c TailCursor) String() string { return cursorString(c) }

// TailBatch is one BATCH frame: a run of records from one ring, plus
// the position to resume that ring from and how many records between
// the previous cursor and Next were lost for good (overwritten by ring
// wrap) — the tail contract makes loss explicit, never silent.
type TailBatch struct {
	Ring    int
	Next    uint64
	Lost    uint64
	Records []journal.Record
}

// TailHeartbeat is one HB frame: the detector/journal counter snapshot
// the server interleaves with batches, plus the session's cumulative
// lag (records lost across all rings since the session began).
type TailHeartbeat struct {
	Seq         uint64 `json:"seq"`         // heartbeat number within the session, from 1
	Emitted     uint64 `json:"emitted"`     // journal records ever emitted
	Overwritten uint64 `json:"overwritten"` // lost to ring wrap before any snapshot saw them
	Grants      uint64 `json:"grants"`      // lock grants summed across every shard
	Runs        int    `json:"runs"`        // detector activations
	Cycles      int    `json:"cycles"`      // cycles searched
	Aborted     int    `json:"aborted"`     // victims aborted
	Lagged      uint64 `json:"lagged"`      // records this tail session lost to overwrite
	// Period and CostModelPeriod are the live detection interval and the
	// cost model's derived optimum.
	Period          time.Duration `json:"period_ns"`
	CostModelPeriod time.Duration `json:"cm_period_ns"`
}

// TailOptions configures one TailJournal session.
type TailOptions struct {
	// FromOldest starts at the oldest retained records; false starts at
	// the emit head ("now"). Ignored when Cursor is non-nil.
	FromOldest bool
	// Cursor resumes a previous session's positions (TailJournal's
	// return value, or the last TailBatch.Next per ring).
	Cursor TailCursor
	// Max ends the tail after this many records (END frame); 0 streams
	// until a callback returns ErrStopTail or the connection drops.
	Max int
	// Heartbeat is the HB cadence; 0 uses the server default (1s).
	Heartbeat time.Duration
	// OnBatch and OnHeartbeat observe the stream. A non-nil return ends
	// the tail: ErrStopTail cleanly, anything else as the session error.
	OnBatch     func(TailBatch) error
	OnHeartbeat func(TailHeartbeat) error
}

// parseTailBatchHeader parses one BATCH frame header into (ring, n,
// next, lost), the fields the server's tailBatchHeader writes. A ring
// or count that does not fit an int is malformed.
func parseTailBatchHeader(line string) (ring, n int, next, lost uint64, err error) {
	for _, f := range strings.Fields(strings.TrimPrefix(line, "BATCH ")) {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			continue // tolerate future non-key fields
		}
		u, perr := strconv.ParseUint(v, 10, 64)
		if perr != nil || (k == "ring" || k == "n") && u > math.MaxInt {
			return 0, 0, 0, 0, fmt.Errorf("lockservice: malformed BATCH field %q", f)
		}
		switch k {
		case "ring":
			ring = int(u)
		case "n":
			n = int(u)
		case "next":
			next = u
		case "lost":
			lost = u
		}
	}
	return ring, n, next, lost, nil
}

// parseTailHeartbeat parses one HB frame. Every counter key wears the
// hb_ prefix; unknown hb_ keys from a newer server are skipped, keys a
// server does not send stay zero — the same forward/backward contract
// as STATS.
func parseTailHeartbeat(line string) (TailHeartbeat, error) {
	var b beat
	for _, f := range strings.Fields(strings.TrimPrefix(line, "HB ")) {
		k, v, ok := strings.Cut(f, "=")
		if !ok || !strings.HasPrefix(k, "hb_") {
			continue
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return TailHeartbeat{}, fmt.Errorf("lockservice: malformed HB field %q", f)
		}
		switch k {
		case hbSeq:
			b.seq = uint64(n)
		case hbLagged:
			b.lagged = uint64(n)
		default:
			if d := metricByHB[k]; d != nil {
				d.SetWire(&b.snap, n)
			}
		}
	}
	s := &b.snap
	return TailHeartbeat{
		Seq:             b.seq,
		Emitted:         s.Journal.Emitted,
		Overwritten:     s.Journal.Overwritten,
		Grants:          s.Total.Grants,
		Runs:            s.Detector.Runs,
		Cycles:          s.Detector.CyclesSearched,
		Aborted:         s.Detector.Aborted,
		Lagged:          b.lagged,
		Period:          s.Period,
		CostModelPeriod: s.CostModel.Period,
	}, nil
}

// TailJournal subscribes to the server's flight recorder and delivers
// the stream to the option callbacks until Max records have arrived, a
// callback ends it, or the connection drops. It returns the resume
// cursor: passing it as TailOptions.Cursor on a later session (even on
// a new connection, after this one died) continues exactly where this
// one stopped, with anything overwritten in between surfacing in
// TailBatch.Lost rather than vanishing.
//
// The client's mutex is held for the whole stream: a tailing client is
// a dedicated telemetry connection, not a transaction connection.
func (c *Client) TailJournal(opts TailOptions) (TailCursor, error) {
	start := time.Now()
	cur, err := c.tailJournal(opts)
	c.observe(VerbTail, start, err)
	return cur, err
}

func (c *Client) tailJournal(opts TailOptions) (TailCursor, error) {
	var cursor TailCursor
	err := c.call(func(b []byte) []byte {
		b = append(b, "TAIL"...)
		if opts.Cursor != nil {
			b = fmt.Appendf(b, " cursor=%s", opts.Cursor)
		} else if opts.FromOldest {
			b = append(b, " from=oldest"...)
		} else {
			b = append(b, " from=now"...)
		}
		if opts.Max > 0 {
			b = fmt.Appendf(b, " max=%d", opts.Max)
		}
		if opts.Heartbeat > 0 {
			b = fmt.Appendf(b, " hb=%s", opts.Heartbeat)
		}
		return b
	}, func(head []byte) error {
		if err := replyErr(head); err != nil {
			return err
		}
		var cur TailCursor
		for _, f := range strings.Fields(string(okPayload(head))) {
			if v, ok := strings.CutPrefix(f, "cursor="); ok {
				for _, p := range strings.Split(v, ",") {
					n, perr := strconv.ParseUint(p, 10, 64)
					if perr != nil {
						return fmt.Errorf("lockservice: malformed TAIL header %q", head)
					}
					cur = append(cur, n)
				}
			}
		}
		if cur == nil {
			return fmt.Errorf("lockservice: malformed TAIL header %q", head)
		}
		// From here on the cursor names the exact resume point, whatever
		// ends the stream.
		cursor = cur
		return c.tailStream(opts, cursor)
	})
	return cursor, err
}

// tailStream consumes frames after the TAIL header, advancing cursor in
// place, until END, a callback's stop or an error.
func (c *Client) tailStream(opts TailOptions, cursor TailCursor) error {
	for {
		line, err := c.r.ReadString('\n')
		if err != nil {
			return err
		}
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "BATCH "):
			ring, n, next, lost, err := parseTailBatchHeader(line)
			if err != nil {
				return err
			}
			b := TailBatch{Ring: ring, Next: next, Lost: lost}
			// The slice grows with the records that arrive: the header's
			// count is the server's word, not a size to allocate.
			for i := 0; i < n; i++ {
				rl, err := c.r.ReadString('\n')
				if err != nil {
					return fmt.Errorf("lockservice: TAIL record %d of %d: %w", i, n, err)
				}
				b.Records = append(b.Records, journal.Record{})
				if err := b.Records[i].UnmarshalText([]byte(strings.TrimSpace(rl))); err != nil {
					return fmt.Errorf("lockservice: TAIL record %d: %w", i, err)
				}
			}
			if ring >= 0 && ring < len(cursor) {
				cursor[ring] = next
			}
			if opts.OnBatch != nil {
				if err := opts.OnBatch(b); err != nil {
					if errors.Is(err, ErrStopTail) {
						return nil
					}
					return err
				}
			}
		case strings.HasPrefix(line, "HB "):
			hb, err := parseTailHeartbeat(line)
			if err != nil {
				return err
			}
			if opts.OnHeartbeat != nil {
				if err := opts.OnHeartbeat(hb); err != nil {
					if errors.Is(err, ErrStopTail) {
						return nil
					}
					return err
				}
			}
		case strings.HasPrefix(line, "END"):
			return nil
		case line == "":
			continue
		default:
			return fmt.Errorf("lockservice: malformed TAIL frame %q", line)
		}
	}
}
