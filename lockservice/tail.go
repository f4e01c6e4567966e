package lockservice

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
	"time"

	"hwtwbg"
	"hwtwbg/journal"
)

// Server side of the TAIL verb: live streaming of the flight recorder
// over the lock protocol connection. A tail session polls every journal
// ring with a per-ring sequence cursor (journal.Ring.ReadFrom), so a
// consumer sees records as they are emitted instead of re-pulling DUMP
// snapshots, and a consumer that reconnects resumes exactly where it
// left off — every record lost to ring overwrite in between is counted
// in the BATCH lost field and the hb_lagged heartbeat key, never
// silently absent. Emit is untouched: tailing is reader-side only and
// adds nothing to the journal hot path. The ring sweep itself (ringTail)
// also drives /journal/stream; each transport supplies only its framing.

const (
	// defaultTailHeartbeat is the HB cadence when the client does not
	// pick one with hb=. Heartbeats double as liveness probes: they are
	// the writes that detect a vanished unbounded-tail client.
	defaultTailHeartbeat = time.Second
	// tailPollInterval is how long an idle tail session sleeps between
	// ring sweeps that found nothing.
	tailPollInterval = 5 * time.Millisecond
	// tailBatchCap bounds records per BATCH frame so one lagging ring
	// cannot starve the others (or the heartbeat) behind a giant frame.
	tailBatchCap = 512
)

// cursorString renders per-ring resume positions as the wire's
// comma-separated cursor= value.
func cursorString(cursors []uint64) string {
	var b strings.Builder
	for i, c := range cursors {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatUint(c, 10))
	}
	return b.String()
}

// tailBatchHeader renders one BATCH frame header. The key=value
// vocabulary is a wire contract checked by the wireschema analyzer
// against the client's parseTailBatchHeader.
//
//hwlint:wire emit tailbatch
func tailBatchHeader(ring, n int, next, lost uint64) string {
	return fmt.Sprintf("BATCH ring=%d n=%d next=%d lost=%d", ring, n, next, lost)
}

// ringTail is the cursor-based ring sweep both live transports share:
// the TAIL verb frames what it finds as BATCH/HB/END lines on the lock
// protocol connection, /journal/stream as server-sent events.
type ringTail struct {
	lm      *hwtwbg.Manager
	jr      *journal.Journal
	cursors []uint64      // per-ring resume positions, advanced as batches go out
	max     int           // records before the end frame; 0 streams until stopped
	hb      time.Duration // heartbeat cadence
}

// tailFramer is one transport's framing of the ring sweep. An error
// from any frame ends the stream.
type tailFramer interface {
	batch(ring int, recs []journal.Record, next, lost uint64) error
	heartbeat(*beat) error
	end(records int) error
	flush() error
	// stopped reports that the stream must end without an end frame:
	// the server is closing or the consumer went away.
	stopped() bool
}

// startCursors positions every ring at its oldest retained record or
// at its emit head ("now").
func startCursors(jr *journal.Journal, fromOldest bool) []uint64 {
	cursors := make([]uint64, jr.NumRings())
	for i := range cursors {
		if fromOldest {
			cursors[i] = jr.Ring(i).Oldest()
		} else {
			cursors[i] = jr.Ring(i).Head()
		}
	}
	return cursors
}

// beat is one heartbeat: the session's sequence number and cumulative
// lag, and the manager snapshot whose rows of hwtwbg.Metrics with an HB
// key it carries.
type beat struct {
	seq, lagged uint64
	snap        hwtwbg.MetricsSnapshot
}

// The heartbeat keys of the session's own facts.
const hbSeq, hbLagged = "hb_seq", "hb_lagged"

// line renders the HB frame.
func (b *beat) line() []byte {
	out := fmt.Appendf(nil, "HB %s=%d", hbSeq, b.seq)
	for i := range hwtwbg.Metrics {
		if d := &hwtwbg.Metrics[i]; d.HB != "" {
			out = fmt.Appendf(out, " %s=%d", d.HB, d.Wire(&b.snap))
		}
	}
	return fmt.Appendf(out, " %s=%d\n", hbLagged, b.lagged)
}

// view is the heartbeat as a TailHeartbeat.
func (b *beat) view() TailHeartbeat {
	s := &b.snap
	return TailHeartbeat{
		Seq:             b.seq,
		Emitted:         s.Journal.Emitted,
		Overwritten:     s.Journal.Overwritten,
		Torn:            s.Journal.TornReads,
		Grants:          s.Total.Grants,
		Runs:            s.Detector.Runs,
		Cycles:          s.Detector.CyclesSearched,
		Aborted:         s.Detector.Aborted,
		Lagged:          b.lagged,
		Period:          s.Period,
		CostModelPeriod: s.CostModel.Period,
	}
}

// run sweeps the rings until max records have gone out, a frame fails
// or the framer stops the stream. Each sweep reads every ring from its
// cursor, at most tailBatchCap records per frame, and heartbeats fire
// on schedule even when batches flow nonstop — a busy stream still
// needs the counter deltas. run reports whether the stream ended with
// its end frame delivered.
func (t *ringTail) run(f tailFramer) bool {
	var (
		total  int
		lagged uint64
		hbSeq  uint64
		buf    []journal.Record
		lastHB = time.Now()
	)
	for !f.stopped() {
		progressed := false
		for i := 0; i < len(t.cursors) && !(t.max > 0 && total >= t.max); i++ {
			limit := tailBatchCap
			if t.max > 0 && t.max-total < limit {
				limit = t.max - total
			}
			recs, next, lost := t.jr.Ring(i).ReadFrom(t.cursors[i], limit, buf[:0])
			if len(recs) == 0 && lost == 0 {
				continue
			}
			t.cursors[i] = next
			lagged += lost
			if f.batch(i, recs, next, lost) != nil {
				return false
			}
			total += len(recs)
			progressed = true
			buf = recs[:0]
		}
		if t.max > 0 && total >= t.max {
			return f.end(total) == nil
		}
		if time.Since(lastHB) >= t.hb {
			hbSeq++
			if f.heartbeat(&beat{seq: hbSeq, lagged: lagged, snap: t.lm.MetricsSnapshot()}) != nil {
				return false
			}
			progressed = true
			lastHB = time.Now()
		}
		if progressed {
			if f.flush() != nil {
				return false
			}
			continue
		}
		time.Sleep(tailPollInterval)
	}
	return false
}

// tailLines frames the sweep for the TAIL verb.
type tailLines struct {
	srv *Server
	w   *bufio.Writer
}

func (f tailLines) batch(ring int, recs []journal.Record, next, lost uint64) error {
	if lost > 0 {
		f.srv.tailLagged.Add(lost)
	}
	fmt.Fprintf(f.w, "%s\n", tailBatchHeader(ring, len(recs), next, lost))
	for j := range recs {
		txt, err := recs[j].MarshalText()
		if err != nil {
			return err
		}
		f.w.Write(txt)
		f.w.WriteByte('\n')
	}
	return nil
}

func (f tailLines) heartbeat(b *beat) error {
	_, err := f.w.Write(b.line())
	return err
}

func (f tailLines) end(records int) error {
	fmt.Fprintf(f.w, "END records=%d\n", records)
	return f.w.Flush()
}

func (f tailLines) flush() error { return f.w.Flush() }

// stopped ends the stream at server shutdown: the connection is about
// to die, and ending here keeps Close from waiting on an idle tail.
func (f tailLines) stopped() bool { return f.srv.isClosed() }

// serveTail runs one TAIL session on the connection's writer. It
// returns false when the connection is unusable (the handler then
// closes it); protocol errors reply ERR and keep the session alive.
func (sess *session) serveTail(w *bufio.Writer, args []string) bool {
	s := sess.srv
	fail := func(msg string) bool {
		fmt.Fprintf(w, "ERR %s\n", msg)
		return w.Flush() == nil
	}
	jr := s.lm.Journal()
	if jr == nil {
		return fail("journal disabled")
	}
	nr := jr.NumRings()
	fromOldest := true
	t := ringTail{lm: s.lm, jr: jr, hb: defaultTailHeartbeat}
	var resume []uint64
	for _, a := range args {
		k, v, ok := strings.Cut(a, "=")
		if !ok {
			return fail("malformed TAIL argument " + a)
		}
		switch k {
		case "from":
			switch v {
			case "oldest":
				fromOldest = true
			case "now":
				fromOldest = false
			default:
				return fail("bad from= value (want oldest or now)")
			}
		case "max":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return fail("bad max= value")
			}
			t.max = n
		case "hb":
			d, err := time.ParseDuration(v)
			if err != nil || d <= 0 {
				return fail("bad hb= value")
			}
			t.hb = d
		case "cursor":
			resume = resume[:0]
			for _, p := range strings.Split(v, ",") {
				n, err := strconv.ParseUint(p, 10, 64)
				if err != nil {
					return fail("bad cursor= value")
				}
				resume = append(resume, n)
			}
		default:
			return fail("unknown TAIL argument " + k)
		}
	}
	if resume != nil {
		if len(resume) != nr {
			return fail(fmt.Sprintf("cursor has %d positions, server has %d rings", len(resume), nr))
		}
		t.cursors = resume
	} else {
		t.cursors = startCursors(jr, fromOldest)
	}
	s.tailSessions.Inc()
	// The OK header names the stream's starting positions, so even a
	// session that dies before its first BATCH leaves the consumer a
	// cursor to resume from.
	fmt.Fprintf(w, "OK rings=%d cursor=%s\n", nr, cursorString(t.cursors))
	if w.Flush() != nil {
		return false
	}
	return t.run(tailLines{srv: s, w: w})
}
