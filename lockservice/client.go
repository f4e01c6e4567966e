package lockservice

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hwtwbg"
	"hwtwbg/journal"
)

// Client speaks the lock protocol over one connection. A client carries
// at most one transaction at a time; its methods serialize, so a Client
// may be shared by goroutines that understand they share the
// transaction.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	r    *bufio.Reader
	buf  []byte // the request being sent, reused

	// next is the transaction the server began behind the last Commit or
	// Abort, which the next Begin hands out; 0 when there is none (the
	// manager numbers transactions from 1). nextTag is the op tag its
	// BEGIN carried. Guarded by mu.
	next    hwtwbg.TxnID
	nextTag uint64

	// tag is the sticky op tag appended to transaction-scoped requests
	// (SetOpTag); 0 = none.
	tag atomic.Uint64
	// vm is the per-verb wire instrumentation (see Metrics).
	vm [numVerbs]verbMetrics
}

// Errors returned by the client.
var (
	// ErrAborted mirrors hwtwbg.ErrAborted across the wire: the
	// transaction was sacrificed to break a deadlock.
	ErrAborted = hwtwbg.ErrAborted
	// ErrBusy: TryLock was refused (would have blocked).
	ErrBusy = errors.New("lockservice: lock busy")
)

// Dial connects to a lock server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection (useful with net.Pipe in
// tests).
func NewClient(conn net.Conn) *Client {
	return &Client{conn: conn, r: bufio.NewReader(conn)}
}

// Close tears the connection down; the server aborts any transaction in
// flight.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	fmt.Fprintf(c.conn, "QUIT\n") // best effort
	return c.conn.Close()
}

// SetOpTag sets the sticky operation tag: while non-zero, every BEGIN,
// LOCK, LOCKALL and TRYLOCK request carries a trailing ` tag=<n>` field
// and the server attaches it to the transaction (hwtwbg.Txn.SetTag), so
// postmortems and `hwtrace report` group this client's wait chains
// under the tag. Zero clears. Servers predating the tag field reject
// tagged LOCK requests, so only set a tag against current servers.
func (c *Client) SetOpTag(tag uint64) { c.tag.Store(tag) }

// call does one request/reply exchange under c.mu; every verb goes
// through it or, if it acts on the transaction, through txnCall, end or
// begin. req appends the request line, newline excluded, to the
// client's reused buffer, which goes out in one conn.Write. reply
// classifies the trimmed reply line while c.mu is still held: the line
// is the reader's buffer and lives only until the next read, which is
// also why multi-line replies are read inside reply.
func (c *Client) call(req func([]byte) []byte, reply func([]byte) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.exchange(req, reply)
}

// txnCall is call for the verbs that act on the caller's transaction.
// While the transaction begun behind the last Commit or Abort waits for
// Begin, the caller has none, and the request is refused here with the
// error the server gives a session without one.
func (c *Client) txnCall(noTxn error, req func([]byte) []byte, reply func([]byte) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.next != 0 {
		return noTxn
	}
	return c.exchange(req, reply)
}

// The server's replies to a transaction verb from a session without a
// transaction, as the client reports them.
var (
	errNoTxnLock   = errors.New("lockservice: no transaction; BEGIN first")
	errNoTxnCommit = errors.New("lockservice: no transaction")
)

// exchange is call's body; c.mu is held.
func (c *Client) exchange(req func([]byte) []byte, reply func([]byte) error) error {
	c.buf = append(req(c.buf[:0]), '\n')
	if _, err := c.conn.Write(c.buf); err != nil {
		return err
	}
	line, err := c.readLine()
	if err != nil {
		return err
	}
	return reply(line)
}

// readLine reads one reply line and trims it. The line is the reader's
// buffer and lives only until the next read; c.mu is held.
func (c *Client) readLine() ([]byte, error) {
	line, err := c.r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		// Longer than the reader's buffer (a long ERR message, a broken
		// server): accumulate it.
		long := append([]byte(nil), line...)
		for err == bufio.ErrBufferFull {
			line, err = c.r.ReadSlice('\n')
			long = append(long, line...)
		}
		line = long
	}
	if err != nil {
		return nil, err
	}
	return bytes.TrimSpace(line), nil
}

// endAndBegin ends the transaction with verb (COMMIT or ABORT) and
// begins the next one in the same write: the two requests are the bytes
// the verb and a later Begin would have sent. It returns verb's outcome
// and keeps the new transaction for Begin; if the BEGIN failed, none is
// kept and Begin makes its own round trip. c.mu is held.
func (c *Client) endAndBegin(verb string) error {
	c.next, c.nextTag = 0, c.tag.Load()
	b := append(append(c.buf[:0], verb...), "\nBEGIN"...)
	c.buf = append(appendTag(b, c.nextTag), '\n')
	if _, err := c.conn.Write(c.buf); err != nil {
		return err
	}
	line, err := c.readLine()
	if err != nil {
		return err
	}
	err = replyErr(line)
	if line, rerr := c.readLine(); rerr == nil {
		if id, berr := beginReply(line); berr == nil {
			c.next = id
		}
	}
	return err
}

// appendTag appends tag as the request's trailing ` tag=<n>` field, if
// it is set.
func appendTag(b []byte, tag uint64) []byte {
	if tag != 0 {
		b = strconv.AppendUint(append(b, " tag="...), tag, 10)
	}
	return b
}

// appendLock appends one ` <resource> <mode>` pair.
func appendLock(b []byte, resource string, mode hwtwbg.Mode) []byte {
	b = append(append(append(b, ' '), resource...), ' ')
	return append(b, mode.String()...)
}

// replyErr classifies a reply line: nil for OK and OK <payload>,
// ErrAborted, ErrBusy, the server's message for ERR <msg>, and a
// malformed-reply error for anything else. Only the errors allocate.
func replyErr(line []byte) error {
	switch {
	case string(line) == "OK" || bytes.HasPrefix(line, []byte("OK ")):
		return nil
	case string(line) == "ABORTED":
		return ErrAborted
	case string(line) == "BUSY":
		return ErrBusy
	case bytes.HasPrefix(line, []byte("ERR ")):
		return errors.New("lockservice: " + string(line[len("ERR "):]))
	default:
		return fmt.Errorf("lockservice: malformed reply %q", line)
	}
}

// okPayload returns what follows "OK " in a reply line.
func okPayload(line []byte) []byte { return bytes.TrimPrefix(line, []byte("OK ")) }

// Ping checks liveness.
func (c *Client) Ping() error {
	start := time.Now()
	err := c.call(func(b []byte) []byte { return append(b, "PING"...) }, func(line []byte) error {
		if string(line) != "PONG" {
			return fmt.Errorf("lockservice: malformed reply %q", line)
		}
		return nil
	})
	return c.observe(VerbPing, start, err)
}

// beginReply parses the reply to BEGIN.
func beginReply(line []byte) (hwtwbg.TxnID, error) {
	if err := replyErr(line); err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(string(okPayload(line)))
	if err != nil {
		return 0, fmt.Errorf("lockservice: malformed BEGIN reply %q", line)
	}
	return hwtwbg.TxnID(n), nil
}

// Begin starts a transaction and returns its server-side id. After a
// Commit or Abort the server has begun it already, and Begin returns it
// without a round trip — unless SetOpTag changed the tag since, in which
// case that transaction is aborted and one with the current tag begun
// in its place, in one round trip.
func (c *Client) Begin() (hwtwbg.TxnID, error) {
	start := time.Now()
	id, err := c.begin()
	return id, c.observe(VerbBegin, start, err)
}

func (c *Client) begin() (hwtwbg.TxnID, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.next != 0 && c.nextTag != c.tag.Load() {
		if err := c.endAndBegin("ABORT"); err != nil {
			return 0, err
		}
	}
	if id := c.next; id != 0 {
		c.next = 0
		return id, nil
	}
	var id hwtwbg.TxnID
	err := c.exchange(func(b []byte) []byte { return appendTag(append(b, "BEGIN"...), c.tag.Load()) }, func(line []byte) (err error) {
		id, err = beginReply(line)
		return err
	})
	return id, err
}

// Lock blocks until the lock is granted, returning ErrAborted if the
// transaction was chosen as a deadlock victim.
func (c *Client) Lock(resource string, mode hwtwbg.Mode) error {
	start := time.Now()
	err := c.txnCall(errNoTxnLock, func(b []byte) []byte {
		return appendTag(appendLock(append(b, "LOCK"...), resource, mode), c.tag.Load())
	}, replyErr)
	return c.observe(VerbLock, start, err)
}

// LockAll acquires every lock in reqs in one round trip, blocking until
// all of them are granted. It maps to the server's LOCKALL verb and so
// to hwtwbg.Txn.LockAll: requests are grouped by shard with one mutex
// round per shard, and on ErrAborted (or any error) locks granted by
// earlier rounds stay held until Commit or Abort. An empty batch is a
// no-op.
func (c *Client) LockAll(reqs []hwtwbg.LockRequest) error {
	if len(reqs) == 0 {
		return nil
	}
	start := time.Now()
	err := c.txnCall(errNoTxnLock, func(b []byte) []byte {
		b = append(b, "LOCKALL"...)
		for _, rq := range reqs {
			b = appendLock(b, string(rq.Resource), rq.Mode)
		}
		return appendTag(b, c.tag.Load())
	}, replyErr)
	return c.observe(VerbLockAll, start, err)
}

// TryLock attempts the lock without blocking; ErrBusy means it would
// have blocked (and was not queued).
func (c *Client) TryLock(resource string, mode hwtwbg.Mode) error {
	start := time.Now()
	err := c.txnCall(errNoTxnLock, func(b []byte) []byte {
		return appendTag(appendLock(append(b, "TRYLOCK"...), resource, mode), c.tag.Load())
	}, replyErr)
	return c.observe(VerbTryLock, start, err)
}

// Commit commits the transaction, releasing every lock. The next
// transaction's BEGIN goes out with the COMMIT (see Begin); the commit's
// outcome is what Commit returns.
func (c *Client) Commit() error {
	start := time.Now()
	return c.observe(VerbCommit, start, c.end("COMMIT", errNoTxnCommit))
}

// Abort rolls the transaction back. The next transaction's BEGIN goes
// out with the ABORT (see Begin); if that one is still waiting for
// Begin, there is nothing to roll back and Abort returns nil, as the
// server answers ABORT without a transaction.
func (c *Client) Abort() error {
	start := time.Now()
	return c.observe(VerbAbort, start, c.end("ABORT", nil))
}

// end is txnCall for COMMIT and ABORT, which begin the next transaction
// as they go.
func (c *Client) end(verb string, noTxn error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.next != 0 {
		return noTxn
	}
	return c.endAndBegin(verb)
}

// Stats is the server's detector statistics plus the service-level
// counters newer servers append to the STATS reply. The embedded
// hwtwbg.Stats fields promote, so st.Runs etc. read as before; fields
// a server does not send stay zero.
type Stats struct {
	hwtwbg.Stats
	ShardGrants uint64        // lock grants summed across every shard
	Period      time.Duration // server's live detection interval (zero: disabled or old server)
	// The scheduling cost model's state (hwtwbg.CostModelState, wire
	// keys cm_*): activations sampled, cycles observed, estimated
	// deadlock formation rate (deadlocks/sec, from the cm_rate_uhz
	// micro-hertz integer), EWMA detection and persistence costs, and
	// the derived cost-minimizing period. Zero from an old server.
	CostModelSamples   int
	CostModelDeadlocks uint64
	CostModelRate      float64
	CostModelDetect    time.Duration
	CostModelPersist   time.Duration
	CostModelPeriod    time.Duration
	// Flight-recorder ring counters (wire keys journal_*): records ever
	// emitted and records lost to ring wrap before any snapshot saw
	// them. Nonzero Overwritten means
	// journal-derived analyses saw a truncated trace. Zero from an old
	// server or a journal-disabled one.
	JournalEmitted     uint64
	JournalOverwritten uint64
	// Live-telemetry counters (wire keys tail_sessions, tail_lagged,
	// op_tags): TAIL sessions ever started, records those sessions lost
	// to ring overwrite before delivery, and op tags attached via the
	// wire tag= field. Zero from an old server.
	TailSessions uint64
	TailLagged   uint64
	OpTags       uint64
}

// Stats fetches the server's detector statistics. The parser is
// forward- and backward-compatible: fields the server does not send
// stay zero (old server, new client) and unknown key=value fields are
// skipped (new server, old client semantics); a known key with a
// non-integer value is a malformed reply.
func (c *Client) Stats() (Stats, error) {
	start := time.Now()
	st, err := c.stats()
	c.observe(VerbStats, start, err)
	return st, err
}

func (c *Client) stats() (Stats, error) {
	var payload string
	err := c.call(func(b []byte) []byte { return append(b, "STATS"...) }, func(line []byte) error {
		payload = string(okPayload(line))
		return replyErr(line)
	})
	if err != nil {
		return Stats{}, err
	}
	var snap hwtwbg.MetricsSnapshot
	var st Stats
	for _, f := range strings.Fields(payload) {
		k, v, ok := strings.Cut(f, "=")
		d, server := metricByStat[k], serverStat(&st, k)
		if !ok || d == nil && server == nil {
			continue // a bare flag, or a key from a newer server
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return Stats{}, fmt.Errorf("lockservice: malformed STATS field %q", f)
		}
		if d != nil {
			d.SetWire(&snap, n)
		} else {
			*server = uint64(n)
		}
	}
	st.Stats = snap.Detector
	st.ShardGrants = snap.Total.Grants
	st.Period = snap.Period
	st.CostModelSamples = snap.CostModel.Samples
	st.CostModelDeadlocks = snap.CostModel.Deadlocks
	st.CostModelRate = snap.CostModel.RatePerSec
	st.CostModelDetect = snap.CostModel.DetectCost
	st.CostModelPersist = snap.CostModel.PersistCost
	st.CostModelPeriod = snap.CostModel.Period
	st.JournalEmitted = snap.Journal.Emitted
	st.JournalOverwritten = snap.Journal.Overwritten
	return st, nil
}

// serverStat returns st's field for the server's own STATS key k, or
// nil.
func serverStat(st *Stats, k string) *uint64 {
	for _, c := range serverStats {
		if c.key == k {
			return c.field(st)
		}
	}
	return nil
}

// metricByStat and metricByHB index hwtwbg.Metrics by STATS key and by
// heartbeat key.
var metricByStat, metricByHB = indexMetrics()

func indexMetrics() (byStat, byHB map[string]*hwtwbg.Metric) {
	byStat, byHB = map[string]*hwtwbg.Metric{}, map[string]*hwtwbg.Metric{}
	for i := range hwtwbg.Metrics {
		d := &hwtwbg.Metrics[i]
		if d.Stat != "" {
			byStat[d.Stat] = d
		}
		if d.HB != "" {
			byHB[d.HB] = d
		}
	}
	return byStat, byHB
}

// DumpJournal fetches the server's flight-recorder contents: a merged,
// time-ordered snapshot of every ring. It returns an error when the
// server's journal is disabled (or the server predates DUMP).
func (c *Client) DumpJournal() ([]journal.Record, error) {
	start := time.Now()
	recs, err := c.dumpJournal()
	c.observe(VerbDump, start, err)
	return recs, err
}

func (c *Client) dumpJournal() ([]journal.Record, error) {
	var recs []journal.Record
	err := c.callLines("DUMP", "record", func(i int, line string) error {
		recs = append(recs, journal.Record{})
		if err := recs[i].UnmarshalText([]byte(strings.TrimSpace(line))); err != nil {
			return fmt.Errorf("lockservice: DUMP record %d: %w", i, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return recs, nil
}

// Snapshot fetches the lock table rendered in the paper's notation.
func (c *Client) Snapshot() (string, error) {
	start := time.Now()
	snap, err := c.snapshot()
	c.observe(VerbSnapshot, start, err)
	return snap, err
}

func (c *Client) snapshot() (string, error) {
	var b strings.Builder
	err := c.callLines("SNAPSHOT", "line", func(_ int, line string) error {
		b.WriteString(line)
		return nil
	})
	if err != nil {
		return "", err
	}
	return b.String(), nil
}

// callLines sends verb and reads its multi-line reply: an `OK n`
// header, then n lines, each handed to line with its index. The header's
// count is the server's word, not a size to allocate. what names a line
// in the error that reports a short reply.
func (c *Client) callLines(verb, what string, line func(i int, s string) error) error {
	return c.call(func(b []byte) []byte { return append(b, verb...) }, func(head []byte) error {
		if err := replyErr(head); err != nil {
			return err
		}
		n, err := strconv.Atoi(string(okPayload(head)))
		if err != nil || n < 0 {
			return fmt.Errorf("lockservice: malformed %s header %q", verb, head)
		}
		for i := 0; i < n; i++ {
			s, err := c.r.ReadString('\n')
			if err != nil {
				return fmt.Errorf("lockservice: %s %s %d of %d: %w", verb, what, i, n, err)
			}
			if err := line(i, s); err != nil {
				return err
			}
		}
		return nil
	})
}
