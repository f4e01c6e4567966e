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
// adds nothing to the journal hot path.

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

// tailBatchHeader renders one BATCH frame header, the line the
// client's parseTailBatchHeader reads back.
func tailBatchHeader(ring, n int, next, lost uint64) string {
	return fmt.Sprintf("BATCH ring=%d n=%d next=%d lost=%d", ring, n, next, lost)
}

// ringTail is one TAIL session's cursor-based ring sweep, framed as
// BATCH/HB/END lines on the lock protocol connection.
type ringTail struct {
	srv     *Server
	w       *bufio.Writer
	jr      *journal.Journal
	cursors []uint64      // per-ring resume positions, advanced as batches go out
	max     int           // records before the END frame; 0 streams until stopped
	hb      time.Duration // heartbeat cadence
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

// run sweeps the rings until max records have gone out, a write fails
// or the server closes. Each sweep reads every ring from its cursor, at
// most tailBatchCap records per BATCH frame, and heartbeats fire on
// schedule even when batches flow nonstop — a busy stream still needs
// the counter deltas. run reports whether the stream ended with its END
// frame delivered. Server shutdown ends it without one: the connection
// is about to die, and ending here keeps Close from waiting on an idle
// tail.
func (t *ringTail) run() bool {
	var (
		total  int
		lagged uint64
		hbSeq  uint64
		buf    []journal.Record
		lastHB = time.Now()
	)
	for !t.srv.isClosed() {
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
			if lost > 0 {
				t.srv.tailLagged.Add(lost)
			}
			fmt.Fprintf(t.w, "%s\n", tailBatchHeader(i, len(recs), next, lost))
			for j := range recs {
				txt, err := recs[j].MarshalText()
				if err != nil {
					return false
				}
				t.w.Write(txt)
				t.w.WriteByte('\n')
			}
			total += len(recs)
			progressed = true
			buf = recs[:0]
		}
		if t.max > 0 && total >= t.max {
			fmt.Fprintf(t.w, "END records=%d\n", total)
			return t.w.Flush() == nil
		}
		if time.Since(lastHB) >= t.hb {
			hbSeq++
			b := beat{seq: hbSeq, lagged: lagged, snap: t.srv.lm.MetricsSnapshot()}
			t.w.Write(b.line())
			lastHB = time.Now()
		}
		// A failed write is sticky in the bufio.Writer, so Flush reports
		// it for every frame of the sweep.
		if t.w.Flush() != nil {
			return false
		}
		// A heartbeat is not progress: a sweep that moved no records
		// sleeps, however short the heartbeat interval.
		if !progressed {
			time.Sleep(tailPollInterval)
		}
	}
	return false
}

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
	t := ringTail{srv: s, w: w, jr: jr, hb: defaultTailHeartbeat}
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
		t.cursors = make([]uint64, nr)
		for i := range t.cursors {
			if fromOldest {
				t.cursors[i] = jr.Ring(i).Oldest()
			} else {
				t.cursors[i] = jr.Ring(i).Head()
			}
		}
	}
	s.tailSessions.Inc()
	// The OK header names the stream's starting positions, so even a
	// session that dies before its first BATCH leaves the consumer a
	// cursor to resume from.
	fmt.Fprintf(w, "OK rings=%d cursor=%s\n", nr, cursorString(t.cursors))
	if w.Flush() != nil {
		return false
	}
	return t.run()
}
