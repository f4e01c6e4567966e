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
//	STATS                 -> OK runs=<n> cycles=<n> aborted=<n> repositioned=<n> salvaged=<n>
//	                            hold_last_ns=<n> hold_max_ns=<n> shard_grants=<n>
//	                            false_cycles=<n> validations=<n> period_ns=<n>
//	                            last_false_cycles=<n> last_validations=<n>
//	                            cm_samples=<n> cm_deadlocks=<n> cm_rate_uhz=<n>
//	                            cm_detect_ns=<n> cm_persist_ns=<n> cm_period_ns=<n>
//	                            journal_emitted=<n> journal_overwritten=<n> journal_torn_reads=<n>
//	                            copy_ns=<n> acquire_ns=<n> shards_copied=<n> shards_skipped=<n>
//	                            tail_sessions=<n> tail_lagged=<n> op_tags=<n>
//	                         (one line; clients must skip unknown key=value fields,
//	                         so the list can grow; last_* report the most recent
//	                         detector activation alone, as do copy_ns and
//	                         acquire_ns — its snapshot copy-out and shard-mutex
//	                         wait; cm_* is the scheduling cost model — rate in
//	                         micro-deadlocks/sec — journal_* the flight
//	                         recorder's ring counters, so silent ring overwrite
//	                         is visible on the wire, and shards_copied/
//	                         shards_skipped the lifetime incremental-snapshot
//	                         totals)
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
//	                             that ring, lost counts records overwritten or
//	                             torn before they could be delivered
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
// Modes are the paper's spellings: IS, IX, S, SIX, X. ABORTED means the
// transaction was sacrificed to break a deadlock; the client should
// retry it from the start.
package lockservice

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"

	"hwtwbg"
	"hwtwbg/journal"
	"hwtwbg/metrics"
)

// Server accepts lock-protocol connections on a listener.
type Server struct {
	lm *hwtwbg.Manager
	ln net.Listener

	// Wire-level telemetry (STATS keys tail_sessions, tail_lagged,
	// op_tags): TAIL sessions ever started, records those sessions lost
	// to ring overwrite before delivery, and op tags attached via the
	// trailing tag= field.
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

// session is the per-connection state.
type session struct {
	srv *Server
	txn *hwtwbg.Txn
	ctx context.Context
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
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		// TAIL streams many lines, so it bypasses the one-line dispatch
		// path and owns the writer until the stream ends.
		if fields := strings.Fields(line); strings.ToUpper(fields[0]) == "TAIL" {
			if !sess.serveTail(w, fields[1:]) {
				return
			}
			continue
		}
		resp, quit := sess.dispatch(line)
		fmt.Fprintf(w, "%s\n", resp)
		if err := w.Flush(); err != nil || quit {
			return
		}
	}
}

// dispatch executes one protocol line against the session.
//
// The STATS reply's key=value vocabulary is the wire contract checked
// by the wireschema analyzer against Client.Stats: adding a key here
// without teaching the client parser (or vice versa) fails lint.
//
//hwlint:wire emit stats
func (sess *session) dispatch(line string) (resp string, quit bool) {
	fields := strings.Fields(line)
	cmd := strings.ToUpper(fields[0])
	// The transaction-scoped verbs accept a trailing ` tag=<uint64>`
	// attaching an application op tag; peel it before argument counting
	// so the verbs' usage shapes are unchanged.
	var tag uint64
	var hasTag bool
	switch cmd {
	case "BEGIN", "LOCK", "LOCKALL", "TRYLOCK":
		if len(fields) > 1 {
			if v, ok := strings.CutPrefix(fields[len(fields)-1], "tag="); ok {
				n, err := strconv.ParseUint(v, 10, 64)
				if err != nil {
					return "ERR malformed tag= field", false
				}
				tag, hasTag = n, true
				fields = fields[:len(fields)-1]
			}
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
		return "PONG", false
	case "QUIT":
		return "BYE", true
	case "BEGIN":
		if sess.txn != nil {
			if sess.txn.Err() == nil {
				return "ERR transaction already active; COMMIT or ABORT first", false
			}
			sess.txn.Recycle() // finished (aborted) handle: hand it back
		}
		sess.txn = sess.srv.lm.Begin()
		setTag()
		return fmt.Sprintf("OK %d", int(sess.txn.ID())), false
	case "LOCK", "TRYLOCK":
		if len(fields) != 3 {
			return "ERR usage: " + cmd + " <resource> <mode>", false
		}
		if sess.txn == nil {
			return "ERR no transaction; BEGIN first", false
		}
		mode, err := hwtwbg.ParseMode(fields[2])
		if err != nil {
			return "ERR " + err.Error(), false
		}
		rid := hwtwbg.ResourceID(fields[1])
		setTag()
		if cmd == "TRYLOCK" {
			ok, err := sess.txn.TryLock(rid, mode)
			switch {
			case errors.Is(err, hwtwbg.ErrAborted):
				return "ABORTED", false
			case err != nil:
				return "ERR " + err.Error(), false
			case !ok:
				return "BUSY", false
			default:
				return "OK", false
			}
		}
		err = sess.txn.Lock(sess.ctx, rid, mode)
		switch {
		case err == nil:
			return "OK", false
		case errors.Is(err, hwtwbg.ErrAborted):
			return "ABORTED", false
		default:
			return "ERR " + err.Error(), false
		}
	case "LOCKALL":
		if len(fields) < 3 || len(fields)%2 == 0 {
			return "ERR usage: LOCKALL <resource> <mode> [<resource> <mode> ...]", false
		}
		if sess.txn == nil {
			return "ERR no transaction; BEGIN first", false
		}
		reqs := make([]hwtwbg.LockRequest, 0, (len(fields)-1)/2)
		for i := 1; i < len(fields); i += 2 {
			mode, err := hwtwbg.ParseMode(fields[i+1])
			if err != nil {
				return "ERR " + err.Error(), false
			}
			reqs = append(reqs, hwtwbg.LockRequest{Resource: hwtwbg.ResourceID(fields[i]), Mode: mode})
		}
		setTag()
		err := sess.txn.LockAll(sess.ctx, reqs)
		switch {
		case err == nil:
			return "OK", false
		case errors.Is(err, hwtwbg.ErrAborted):
			return "ABORTED", false
		default:
			return "ERR " + err.Error(), false
		}
	case "COMMIT":
		if sess.txn == nil {
			return "ERR no transaction", false
		}
		err := sess.txn.Commit()
		sess.txn.Recycle() // no-op if Commit failed with the txn still live
		sess.txn = nil
		if err != nil {
			if errors.Is(err, hwtwbg.ErrAborted) {
				return "ABORTED", false
			}
			return "ERR " + err.Error(), false
		}
		return "OK", false
	case "ABORT":
		if sess.txn != nil {
			sess.txn.Abort()
			sess.txn.Recycle()
			sess.txn = nil
		}
		return "OK", false
	case "STATS":
		st := sess.srv.lm.Stats()
		var shardGrants uint64
		for _, sh := range sess.srv.lm.ShardStats() {
			shardGrants += sh.Grants
		}
		last, _ := sess.srv.lm.LastActivation() // zero report when none has run
		cm := sess.srv.lm.CostModel()
		var js journal.RingStats
		if jr := sess.srv.lm.Journal(); jr != nil {
			js = jr.Stats()
		}
		return fmt.Sprintf("OK runs=%d cycles=%d aborted=%d repositioned=%d salvaged=%d hold_last_ns=%d hold_max_ns=%d shard_grants=%d false_cycles=%d validations=%d period_ns=%d last_false_cycles=%d last_validations=%d"+
			" cm_samples=%d cm_deadlocks=%d cm_rate_uhz=%d cm_detect_ns=%d cm_persist_ns=%d cm_period_ns=%d"+
			" journal_emitted=%d journal_overwritten=%d journal_torn_reads=%d"+
			" copy_ns=%d acquire_ns=%d shards_copied=%d shards_skipped=%d"+
			" tail_sessions=%d tail_lagged=%d op_tags=%d",
			st.Runs, st.CyclesSearched, st.Aborted, st.Repositioned, st.Salvaged,
			st.ShardHoldLast.Nanoseconds(), st.ShardHoldMax.Nanoseconds(), shardGrants,
			st.FalseCycles, st.Validations, sess.srv.lm.CurrentPeriod().Nanoseconds(),
			last.FalseCycles, last.Validations,
			cm.Samples, cm.Deadlocks, int64(cm.RatePerSec*1e6), cm.DetectCost.Nanoseconds(), cm.PersistCost.Nanoseconds(), cm.Period.Nanoseconds(),
			js.Emitted, js.Overwritten, js.TornReads,
			last.Copy.Nanoseconds(), last.Acquire.Nanoseconds(), st.ShardsCopied, st.ShardsSkipped,
			sess.srv.tailSessions.Load(), sess.srv.tailLagged.Load(), sess.srv.opTags.Load()), false
	case "DUMP":
		jr := sess.srv.lm.Journal()
		if jr == nil {
			return "ERR journal disabled", false
		}
		recs := jr.Snapshot()
		var b strings.Builder
		fmt.Fprintf(&b, "OK %d", len(recs))
		for i := range recs {
			txt, err := recs[i].MarshalText()
			if err != nil {
				return "ERR " + err.Error(), false
			}
			b.WriteString("\n")
			b.Write(txt)
		}
		return b.String(), false
	case "SNAPSHOT":
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
		return b.String(), false
	default:
		return "ERR unknown command " + cmd, false
	}
}
