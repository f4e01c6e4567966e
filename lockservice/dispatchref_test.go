package lockservice

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"hwtwbg"
	"hwtwbg/journal"
)

// The string request path the server had before it parsed requests as
// bytes, kept verbatim as FuzzDispatch's oracle: refServe is the old
// handle loop over a byte stream, dispatch the old dispatcher. Only the
// receiver type is renamed, the connection bookkeeping is gone, TAIL
// (outside the fuzzer's alphabet) is not routed, and the DUMP and
// SNAPSHOT arms left with the verbs.

// refSession is the old per-connection state.
type refSession struct {
	srv *Server
	txn *hwtwbg.Txn
	ctx context.Context
}

// refServe answers the request stream in against lm, writing replies to
// out, the way the old handle loop did.
func refServe(lm *hwtwbg.Manager, in io.Reader, out io.Writer) {
	sess := &refSession{srv: &Server{lm: lm}, ctx: context.Background()}
	defer func() {
		if sess.txn != nil {
			sess.txn.Abort()
			sess.txn.Recycle()
		}
	}()

	w := bufio.NewWriter(out)
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
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
func (sess *refSession) dispatch(line string) (resp string, quit bool) {
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
		st := sess.srv.lm.MetricsSnapshot().Detector
		var shardGrants uint64
		for _, sh := range sess.srv.lm.ShardStats() {
			shardGrants += sh.Grants
		}
		snap := sess.srv.lm.MetricsSnapshot()
		cm := snap.CostModel
		var js journal.RingStats
		if jr := sess.srv.lm.Journal(); jr != nil {
			js = jr.Stats()
		}
		return fmt.Sprintf("OK runs=%d cycles=%d aborted=%d repositioned=%d salvaged=%d hold_last_ns=%d hold_max_ns=%d shard_grants=%d false_cycles=%d validations=%d period_ns=%d"+
			" cm_samples=%d cm_deadlocks=%d cm_rate_uhz=%d cm_detect_ns=%d cm_persist_ns=%d cm_period_ns=%d"+
			" journal_emitted=%d journal_overwritten=%d"+
			" shards_copied=%d shards_skipped=%d"+
			" tail_sessions=%d tail_lagged=%d op_tags=%d",
			st.Runs, st.CyclesSearched, st.Aborted, st.Repositioned, st.Salvaged,
			st.ShardHoldLast.Nanoseconds(), st.ShardHoldMax.Nanoseconds(), shardGrants,
			st.FalseCycles, st.Validations, snap.Period.Nanoseconds(),
			cm.Samples, cm.Deadlocks, int64(cm.RatePerSec*1e6), cm.DetectCost.Nanoseconds(), cm.PersistCost.Nanoseconds(), cm.Period.Nanoseconds(),
			js.Emitted, js.Overwritten,
			st.ShardsCopied, st.ShardsSkipped,
			sess.srv.tailSessions.Load(), sess.srv.tailLagged.Load(), sess.srv.opTags.Load()), false
	default:
		return "ERR unknown command " + cmd, false
	}
}
