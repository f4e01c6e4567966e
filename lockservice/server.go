// Package lockservice exposes the hwtwbg lock manager over TCP with a
// line-oriented text protocol, plus a matching client. One connection
// carries one transaction at a time — the sequential transaction model
// of the paper — and a dropped connection aborts its transaction, so a
// crashed client can never wedge the lock table.
//
// Protocol (requests and responses are single lines unless noted):
//
//	BEGIN                 -> OK <txn-id>
//	LOCK <resource> <mode> -> OK | ABORTED | ERR <msg>   (blocks until granted)
//	LOCKALL <resource> <mode> [<resource> <mode> ...] -> OK | ABORTED | ERR <msg>
//	                         (group acquisition: blocks until every named lock is
//	                         granted, taking each shard mutex once per round — see
//	                         hwtwbg.Txn.LockAll; on ABORTED/ERR mid-batch, locks
//	                         granted by earlier rounds stay held until COMMIT/ABORT)
//	TRYLOCK <resource> <mode> -> OK | BUSY | ABORTED | ERR <msg>
//	COMMIT                -> OK | ERR <msg>
//	ABORT                 -> OK
//	STATS                 -> OK <key>=<n> ...
//	                         (one line: the STATS key of every row of
//	                         hwtwbg.Metrics that has one, in table order —
//	                         runs, cycles, aborted, ..., shards_skipped —
//	                         then tail_sessions, tail_lagged and op_tags;
//	                         durations in nanoseconds, cm_rate_uhz in
//	                         micro-deadlocks/sec. Clients must skip unknown
//	                         key=value fields, so the list can grow)
//	SNAPSHOT              -> OK <n-lines> followed by n lines of lock table
//	DUMP                  -> OK <n-records> followed by n lines, each one flight-
//	                         recorder record in its base64 text form (see
//	                         journal.Record.MarshalText); ERR when the journal
//	                         is disabled
//	TAIL [from=oldest|now] [max=<n>] [hb=<dur>] [cursor=<s0>,<s1>,...]
//	                      -> OK rings=<R> cursor=<s0>,<s1>,...  then a stream of
//	                         frames until max records have been delivered (END)
//	                         or the connection closes:
//	                           BATCH ring=<i> n=<k> next=<seq> lost=<m>
//	                             followed by k record lines (base64, the DUMP
//	                             line format); next is the resume cursor for
//	                             that ring, lost counts records overwritten
//	                             before they could be delivered
//	                           HB hb_<key>=<value> ...   (periodic heartbeat:
//	                             detector/journal counters and session lag)
//	                           END records=<n>           (bounded tails only;
//	                             the session then returns to command mode)
//	                         A tail that named max returns to the request/reply
//	                         protocol after END; an unbounded tail ends when the
//	                         client closes the connection — the OK header's (and
//	                         each BATCH's) cursor lets the next session resume
//	                         exactly where this one stopped. ERR when the
//	                         journal is disabled.
//	PING                  -> PONG
//	QUIT                  -> BYE (and the connection closes)
//
// BEGIN, LOCK, LOCKALL and TRYLOCK accept a trailing ` tag=<uint64>`
// field attaching an application operation tag to the transaction (see
// hwtwbg.Txn.SetTag): the flight recorder journals it, and postmortems,
// `hwtrace report` and near-miss output group wait chains by it.
//
// Pipelining. A client may write several requests before it reads a
// reply; the server answers them exactly as if they had come one at a
// time, under three rules:
//
//   - replies leave in request order, one per non-blank request line;
//   - a LOCK or LOCKALL that blocks stalls only the replies behind it:
//     the replies owed to earlier lines are flushed before it waits;
//   - after ABORTED, every later line already sent gets its one defined
//     reply: LOCK, LOCKALL, TRYLOCK and COMMIT answer ABORTED (COMMIT
//     then ends the transaction), ABORT answers OK and BEGIN OK <txn-id>.
//
// The server flushes its replies when no complete request line is left
// in its read buffer, so a batch costs it one write and a client that
// waits for each reply sees each reply as soon as it is made. Client
// uses this for one thing only: Commit and Abort send the next
// transaction's BEGIN in the same write.
//
// Modes are the paper's spellings: IS, IX, S, SIX, X. ABORTED means the
// transaction was sacrificed to break a deadlock; the client should
// retry it from the start.
package lockservice

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"

	"hwtwbg"
	"hwtwbg/metrics"
)

// Server accepts lock-protocol connections on a listener.
type Server struct {
	lm *hwtwbg.Manager
	ln net.Listener

	// Wire-level telemetry (serverStats): TAIL sessions ever started,
	// records those sessions lost to ring overwrite before delivery, and
	// op tags attached via the trailing tag= field.
	tailSessions metrics.Counter
	tailLagged   metrics.Counter
	opTags       metrics.Counter

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// Serve starts serving on ln with a manager configured by opts. It
// returns immediately; use Close to stop.
func Serve(ln net.Listener, opts hwtwbg.Options) *Server {
	s := &Server{
		lm:    hwtwbg.Open(opts),
		ln:    ln,
		conns: make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listening address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// isClosed reports whether Close has started; long-lived streams poll
// it so shutdown never waits on an idle tail session.
func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Manager exposes the underlying lock manager (diagnostics).
func (s *Server) Manager() *hwtwbg.Manager { return s.lm }

// Close stops accepting, drops every connection (aborting their
// transactions) and shuts the lock manager down.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.ln.Close()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	s.lm.Close()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// maxLine bounds a request line: at most maxLine-1 bytes before its
// newline (the 1 MiB bufio.Scanner limit the server always had). A
// longer line closes the connection unanswered.
const maxLine = 1 << 20

// bufSize is the request read buffer, and the largest reply buffer a
// session keeps between requests.
const bufSize = 4096

// session is the per-connection state.
type session struct {
	srv *Server
	txn *hwtwbg.Txn
	ctx context.Context

	// Scratch reused by every request: the line's fields (subslices of
	// the line), the reply being built and the LOCKALL batch.
	fields [][]byte
	out    []byte
	reqs   []hwtwbg.LockRequest
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	// A context cancelled when the connection goes away unblocks any
	// LOCK in flight (which aborts the transaction).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sess := &session{srv: s, ctx: ctx}
	defer func() {
		if sess.txn != nil {
			sess.txn.Abort()
			sess.txn.Recycle()
		}
	}()

	w := bufio.NewWriter(conn)
	defer w.Flush() // replies owed when the session ends still go out
	r := bufio.NewReaderSize(conn, bufSize)
	// long accumulates a line that outgrows r's buffer; it is dropped
	// once served so one long line does not pin its size for the
	// connection's lifetime.
	var long []byte
	for {
		// Replies wait in w until the next read could block: a client
		// that pipelines gets one write for its batch, one that waits for
		// each reply gets each reply as before.
		if w.Buffered() > 0 && !lineBuffered(r) && w.Flush() != nil {
			return
		}
		line, err := r.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			if long = append(long, line...); len(long) >= maxLine {
				return
			}
			continue
		}
		if long != nil {
			line, long = append(long, line...), nil
		}
		n := len(line)
		if n > 0 && line[n-1] == '\n' {
			n--
		}
		if n >= maxLine {
			return
		}
		// A read error still serves the bytes before it, as a final
		// unterminated line.
		if line = bytes.TrimSpace(line); len(line) > 0 && !sess.serve(w, line) {
			return
		}
		if err != nil {
			return
		}
	}
}

// lineBuffered reports whether r holds a complete line, so the next
// ReadSlice returns without reading the connection.
func lineBuffered(r *bufio.Reader) bool {
	b, _ := r.Peek(r.Buffered())
	return bytes.IndexByte(b, '\n') >= 0
}

// serve answers one non-blank request line into w, which handle
// flushes; false closes the connection.
func (sess *session) serve(w *bufio.Writer, line []byte) bool {
	sess.fields = appendFields(sess.fields[:0], line)
	cmd := verb(sess.fields[0])
	switch cmd {
	case "LOCK", "LOCKALL", "TAIL":
		// These can wait, on a lock or on the journal: the replies owed
		// to earlier lines leave first.
		if w.Buffered() > 0 && w.Flush() != nil {
			return false
		}
	}
	// TAIL streams many lines, so it bypasses the one-line dispatch path
	// and owns the writer until the stream ends.
	if cmd == "TAIL" {
		args := make([]string, len(sess.fields)-1)
		for i, f := range sess.fields[1:] {
			args[i] = string(f)
		}
		return sess.serveTail(w, args)
	}
	sess.out = sess.out[:0]
	quit := sess.dispatch(line, cmd)
	clear(sess.fields) // they may point into a long line's buffer
	sess.out = append(sess.out, '\n')
	w.Write(sess.out)
	if cap(sess.out) > bufSize {
		sess.out = nil // a DUMP or SNAPSHOT reply: do not keep its size
	}
	return !quit
}

// appendFields appends line's fields to dst, split exactly where
// strings.Fields splits: at runs of unicode.IsSpace, where an invalid
// UTF-8 byte is not a space. Each field is a two-index subslice of line,
// so its capacity records its offset (see fieldString).
func appendFields(dst [][]byte, line []byte) [][]byte {
	start := -1
	for i := 0; i < len(line); {
		r, size := rune(line[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRune(line[i:])
		}
		if unicode.IsSpace(r) {
			if start >= 0 {
				dst = append(dst, line[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
		i += size
	}
	if start >= 0 {
		dst = append(dst, line[start:])
	}
	return dst
}

// verbs are the commands the server knows, in strings.ToUpper's case.
var verbs = [...]string{
	"BEGIN", "LOCK", "LOCKALL", "TRYLOCK", "COMMIT", "ABORT",
	"STATS", "DUMP", "SNAPSHOT", "TAIL", "PING", "QUIT",
}

// verb returns strings.ToUpper of a request's first field: one of verbs,
// without allocating, when f spells it in ASCII; a fresh string
// otherwise (an unknown command, or a non-ASCII spelling such as "pıng"
// that upper-cases to a verb).
func verb(f []byte) string {
next:
	for _, v := range verbs {
		if len(v) != len(f) {
			continue
		}
		for i, c := range f {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			if c != v[i] {
				continue next
			}
		}
		return v
	}
	return strings.ToUpper(string(f))
}

// fieldString returns f's text as a substring of s, a string copy of
// line, so a request costs one allocation however many resources it
// names. f must be a subslice of line (appendFields makes them so): its
// offset is its capacity's distance from line's.
func fieldString(s string, line, f []byte) hwtwbg.ResourceID {
	off := cap(line) - cap(f)
	return hwtwbg.ResourceID(s[off : off+len(f)])
}

// reply appends s to the reply being built.
func (sess *session) reply(s string) { sess.out = append(sess.out, s...) }

// replyErr appends the ERR reply for err.
func (sess *session) replyErr(err error) { sess.reply("ERR " + err.Error()) }

// replyOutcome appends the reply to a LOCK, LOCKALL or COMMIT outcome.
func (sess *session) replyOutcome(err error) {
	switch {
	case err == nil:
		sess.reply("OK")
	case errors.Is(err, hwtwbg.ErrAborted):
		sess.reply("ABORTED")
	default:
		sess.replyErr(err)
	}
}

// dispatch executes one request line against the session, appending its
// reply (without the newline) to sess.out. The line's fields are in
// sess.fields; cmd is the upper-cased verb.
func (sess *session) dispatch(line []byte, cmd string) (quit bool) {
	fields := sess.fields
	// The transaction-scoped verbs accept a trailing ` tag=<uint64>`
	// attaching an application op tag; peel it before argument counting
	// so the verbs' usage shapes are unchanged.
	var tag uint64
	var hasTag bool
	switch cmd {
	case "BEGIN", "LOCK", "LOCKALL", "TRYLOCK":
		if last := len(fields) - 1; last > 0 && bytes.HasPrefix(fields[last], []byte("tag=")) {
			n, err := strconv.ParseUint(string(fields[last][len("tag="):]), 10, 64)
			if err != nil {
				sess.reply("ERR malformed tag= field")
				return false
			}
			tag, hasTag = n, true
			fields = fields[:last]
		}
	}
	// setTag applies the peeled tag to the live transaction — before the
	// lock call, so the journaled op-tag record precedes the waits it
	// explains.
	setTag := func() {
		if hasTag && sess.txn != nil {
			sess.txn.SetTag(tag)
			sess.srv.opTags.Inc()
		}
	}
	switch cmd {
	case "PING":
		sess.reply("PONG")
	case "QUIT":
		sess.reply("BYE")
		return true
	case "BEGIN":
		if sess.txn != nil {
			if sess.txn.Err() == nil {
				sess.reply("ERR transaction already active; COMMIT or ABORT first")
				return false
			}
			sess.txn.Recycle() // finished (aborted) handle: hand it back
		}
		sess.txn = sess.srv.lm.Begin()
		setTag()
		sess.out = strconv.AppendInt(append(sess.out, "OK "...), int64(sess.txn.ID()), 10)
	case "LOCK", "TRYLOCK":
		if len(fields) != 3 {
			sess.reply("ERR usage: " + cmd + " <resource> <mode>")
			return false
		}
		if sess.txn == nil {
			sess.reply("ERR no transaction; BEGIN first")
			return false
		}
		mode, err := hwtwbg.ParseMode(string(fields[2]))
		if err != nil {
			sess.replyErr(err)
			return false
		}
		rid := fieldString(string(line), line, fields[1])
		setTag()
		if cmd == "LOCK" {
			sess.replyOutcome(sess.txn.Lock(sess.ctx, rid, mode))
			return false
		}
		ok, err := sess.txn.TryLock(rid, mode)
		switch {
		case errors.Is(err, hwtwbg.ErrAborted):
			sess.reply("ABORTED")
		case err != nil:
			sess.replyErr(err)
		case !ok:
			sess.reply("BUSY")
		default:
			sess.reply("OK")
		}
	case "LOCKALL":
		if len(fields) < 3 || len(fields)%2 == 0 {
			sess.reply("ERR usage: LOCKALL <resource> <mode> [<resource> <mode> ...]")
			return false
		}
		if sess.txn == nil {
			sess.reply("ERR no transaction; BEGIN first")
			return false
		}
		reqs := sess.reqs[:0]
		for i := 2; i < len(fields); i += 2 {
			mode, err := hwtwbg.ParseMode(string(fields[i]))
			if err != nil {
				sess.replyErr(err)
				return false
			}
			reqs = append(reqs, hwtwbg.LockRequest{Mode: mode})
		}
		s := string(line)
		for i := range reqs {
			reqs[i].Resource = fieldString(s, line, fields[1+2*i])
		}
		setTag()
		sess.replyOutcome(sess.txn.LockAll(sess.ctx, reqs))
		// The manager keeps the names it holds; the scratch keeps none.
		clear(reqs)
		sess.reqs = reqs
	case "COMMIT":
		if sess.txn == nil {
			sess.reply("ERR no transaction")
			return false
		}
		err := sess.txn.Commit()
		sess.txn.Recycle() // no-op if Commit failed with the txn still live
		sess.txn = nil
		sess.replyOutcome(err)
	case "ABORT":
		if sess.txn != nil {
			sess.txn.Abort()
			sess.txn.Recycle()
			sess.txn = nil
		}
		sess.reply("OK")
	case "STATS":
		sess.out = sess.srv.appendStats(sess.out)
	case "DUMP":
		sess.reply(sess.dump())
	case "SNAPSHOT":
		sess.reply(sess.snapshot())
	default:
		sess.reply("ERR unknown command " + cmd)
	}
	return false
}

// serverStats are the STATS keys the server counts itself, after the
// manager's rows of hwtwbg.Metrics.
var serverStats = []struct {
	key     string
	counter func(*Server) *metrics.Counter
	field   func(*Stats) *uint64
}{
	{"tail_sessions", func(s *Server) *metrics.Counter { return &s.tailSessions }, func(st *Stats) *uint64 { return &st.TailSessions }},
	{"tail_lagged", func(s *Server) *metrics.Counter { return &s.tailLagged }, func(st *Stats) *uint64 { return &st.TailLagged }},
	{"op_tags", func(s *Server) *metrics.Counter { return &s.opTags }, func(st *Stats) *uint64 { return &st.OpTags }},
}

// appendStats appends the STATS reply to b.
func (s *Server) appendStats(b []byte) []byte {
	snap := s.lm.MetricsSnapshot()
	b = append(b, "OK"...)
	for i := range hwtwbg.Metrics {
		if d := &hwtwbg.Metrics[i]; d.Stat != "" {
			b = fmt.Appendf(b, " %s=%d", d.Stat, d.Wire(&snap))
		}
	}
	for _, c := range serverStats {
		b = fmt.Appendf(b, " %s=%d", c.key, c.counter(s).Load())
	}
	return b
}

// dump renders the DUMP reply: a header and one line per record.
func (sess *session) dump() string {
	jr := sess.srv.lm.Journal()
	if jr == nil {
		return "ERR journal disabled"
	}
	recs := jr.Snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "OK %d", len(recs))
	for i := range recs {
		txt, err := recs[i].MarshalText()
		if err != nil {
			return "ERR " + err.Error()
		}
		b.WriteString("\n")
		b.Write(txt)
	}
	return b.String()
}

// snapshot renders the SNAPSHOT reply: a header and the lock table.
func (sess *session) snapshot() string {
	snap := sess.srv.lm.Snapshot()
	lines := strings.Split(strings.TrimRight(snap, "\n"), "\n")
	if snap == "" {
		lines = nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "OK %d", len(lines))
	for _, l := range lines {
		b.WriteString("\n")
		b.WriteString(l)
	}
	return b.String()
}
