package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hwtwbg"
	"hwtwbg/lockservice"
)

const (
	wireRange  = 2048                   // private resources per client
	verbsLocks = 4                      // LOCK verbs per wire_verbs transaction
	hotBatch   = 8                      // requests per wire_hot LOCKALL, the first being hot/0
	hotHeld    = 2                      // LOCK verbs after the LOCKALL, with hot/0 held
	hotLocks   = hotBatch - 1 + hotHeld // private locks per wire_hot transaction
	wireConns  = 2                      // nproc on the host the bounds were taken on
	verbsTxns  = 200                    // transactions per client per round
	hotTxns    = 200
	wireEcho   = 512 // echo round trips per client after every round
	// Rounds pre-generated per client. A 12 s run replays some 400 of
	// them; the pools are this large so that set-up is a few tenths of a
	// second of single-threaded work, which a millisecond of jitter does
	// not move.
	verbsPool    = 12288
	hotPool      = 4096
	serverPeriod = 20 * time.Millisecond // lockd's default
)

// countConn counts what the client writes: request lines and their bytes.
type countConn struct {
	net.Conn
	writes, bytes atomic.Uint64
}

func (c *countConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	c.bytes.Add(uint64(len(p)))
	return c.Conn.Write(p)
}

// wireOp is one lock of a script: a private resource index, and wireX set
// for mode X. Two bytes an operation keep a pool of millions small and free
// of pointers.
type wireOp uint16

const wireX wireOp = 1 << 15

func (o wireOp) res() int { return int(o &^ wireX) }

func (o wireOp) mode() hwtwbg.Mode {
	if o&wireX != 0 {
		return hwtwbg.X
	}
	return hwtwbg.S
}

type wireInst struct {
	hot     bool
	txns    int // per client per round
	perTxn  int // private locks per transaction
	srv     *lockservice.Server
	addr    string
	conns   []*countConn
	clients []*lockservice.Client
	echo    *echoRef
	names   [][]hwtwbg.ResourceID // [client][index]
	scripts [][][]wireOp          // [client][round][txn*perTxn]
	issued  []int                 // per client, every phase
	commits []int
}

func setupWire(hot bool) func(config) (instance, error) {
	return func(cfg config) (instance, error) {
		w := &wireInst{hot: hot, txns: verbsTxns, perTxn: verbsLocks}
		conns, pool := wireConns, cfg.scaled(verbsPool, 4)
		// The reference line is as long as the mean request line of a
		// transaction.
		prefix, lineLen := "v", (len("BEGIN tag=1\n")+verbsLocks*len("LOCK v0/0000 X tag=1\n")+len("COMMIT\n"))/(verbsLocks+2)
		if hot {
			w.txns, w.perTxn = hotTxns, hotLocks
			pool = cfg.scaled(hotPool, 4)
			lockAll := len("LOCKALL hot/0 X tag=1\n") + (hotBatch-1)*len(" p0/0000 X")
			prefix, lineLen = "p", (len("BEGIN tag=1\n")+lockAll+hotHeld*len("LOCK p0/0000 X tag=1\n")+len("COMMIT\n"))/(3+hotHeld)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("listen: %w", err)
		}
		w.srv, w.addr = lockservice.Serve(ln, hwtwbg.Options{Period: serverPeriod}), ln.Addr().String()
		for c := 0; c < conns; c++ {
			conn, err := net.Dial("tcp", w.addr)
			if err != nil {
				w.close()
				return nil, fmt.Errorf("dial: %w", err)
			}
			cc := &countConn{Conn: conn}
			cl := lockservice.NewClient(cc)
			cl.SetOpTag(uint64(c + 1))
			w.conns, w.clients = append(w.conns, cc), append(w.clients, cl)
		}
		if w.echo, err = newEchoRef(conns, lineLen); err != nil {
			w.close()
			return nil, err
		}
		w.names = make([][]hwtwbg.ResourceID, conns)
		for c := range w.names {
			w.names[c] = make([]hwtwbg.ResourceID, wireRange)
			for i := range w.names[c] {
				w.names[c][i] = hwtwbg.ResourceID(fmt.Sprintf("%s%d/%04d", prefix, c, i))
			}
		}
		rng := rand.New(rand.NewSource(cfg.Seed))
		w.scripts = make([][][]wireOp, conns)
		for c := range w.scripts {
			w.scripts[c] = make([][]wireOp, pool)
			for r := range w.scripts[c] {
				ops := make([]wireOp, 0, w.txns*w.perTxn)
				for t := 0; t < w.txns; t++ {
					ops = appendDistinct(ops, rng, w.perTxn)
				}
				w.scripts[c][r] = ops
			}
		}
		w.issued, w.commits = make([]int, conns), make([]int, conns)
		return w, nil
	}
}

// appendDistinct appends n operations on n different resources, each S or X
// with equal odds.
func appendDistinct(ops []wireOp, rng *rand.Rand, n int) []wireOp {
	base := len(ops)
draw:
	for len(ops) < base+n {
		r := rng.Intn(wireRange)
		for _, o := range ops[base:] {
			if o.res() == r {
				continue draw
			}
		}
		o := wireOp(r)
		if rng.Intn(2) == 1 {
			o |= wireX
		}
		ops = append(ops, o)
	}
	return ops
}

func (w *wireInst) manager() *hwtwbg.Manager { return w.srv.Manager() }
func (w *wireInst) workers() int             { return len(w.clients) }
func (w *wireInst) dropInputs()              { w.scripts = nil }

func (w *wireInst) ref(c int, lat []int64) ([]int64, error) {
	return burst(wireEcho, lat, func() error { return w.echo.trip(c) })
}

func (w *wireInst) sizes() roundSizes {
	return roundSizes{Workers: len(w.clients), Txns: w.txns, RefOps: wireEcho, Reference: "echo_rtt", Pool: len(w.scripts[0])}
}

func (w *wireInst) close() {
	for _, c := range w.clients {
		c.Close()
	}
	if w.echo != nil {
		w.echo.close()
	}
	w.srv.Close()
}

// work replays one round of client c: a transaction at a time, closed loop,
// each timed from before BEGIN to after COMMIT.
func (w *wireInst) work(c, script int, budget *atomic.Int64, tr *tracer, out *workOut) {
	cl, names, ops, sb := w.clients[c], w.names[c], w.scripts[c][script], tr.buf(c)
	var reqs [hotBatch]hwtwbg.LockRequest
	reqs[0] = hwtwbg.LockRequest{Resource: "hot/0", Mode: hwtwbg.X}
	for t := 0; budget.Add(-1) >= 0; t = (t + 1) % w.txns {
		txnOps := ops[t*w.perTxn : (t+1)*w.perTxn]
		w.issued[c]++
		id := w.issued[c]*len(w.clients) + c
		start := time.Now()
		root := sb.begin(spTxn, id)
		sp := sb.begin(spClientBegin, id)
		_, err := cl.Begin()
		sb.end(sp)
		if err == nil && w.hot {
			for i, o := range txnOps[:hotBatch-1] {
				reqs[i+1] = hwtwbg.LockRequest{Resource: names[o.res()], Mode: o.mode()}
			}
			sp = sb.begin(spClientLockAll, id)
			err = cl.LockAll(reqs[:])
			sb.end(sp)
			// The remaining LOCKs go out with hot/0 held: that keeps it long
			// enough for the other client's LOCKALL to arrive and queue, so
			// most transactions wait for a commit's hand-off.
			txnOps = txnOps[hotBatch-1:]
		}
		if err == nil {
			for _, o := range txnOps {
				sp = sb.begin(spClientLock, id)
				err = cl.Lock(string(names[o.res()]), o.mode())
				sb.end(sp)
				if err != nil {
					break
				}
			}
		}
		if err == nil {
			sp = sb.begin(spClientCommit, id)
			err = cl.Commit()
			sb.end(sp)
		}
		sb.end(root)
		if err != nil {
			// No operation of these workloads may fail; give the
			// connection a clean slate and count it.
			out.failed++
			cl.Abort()
			continue
		}
		w.commits[c]++
		out.txns++
		out.lat = append(out.lat, int64(time.Since(start)))
	}
}

func (w *wireInst) verify() []string {
	var bad []string
	for c := range w.clients {
		if w.commits[c] != w.issued[c] {
			bad = append(bad, fmt.Sprintf("client %d: commits observed %d != transactions issued %d", c, w.commits[c], w.issued[c]))
		}
	}
	// A connection of its own, so the load connections carry nothing but
	// the transactions' verbs.
	ctl, err := lockservice.Dial(w.addr)
	if err != nil {
		return append(bad, fmt.Sprintf("STATS: %v", err))
	}
	defer ctl.Close()
	st, err := ctl.Stats()
	if err != nil {
		return append(bad, fmt.Sprintf("STATS: %v", err))
	}
	if st.Aborted != 0 || st.CyclesSearched != 0 {
		bad = append(bad, fmt.Sprintf("server STATS: aborted=%d cycles=%d, want 0 and 0", st.Aborted, st.CyclesSearched))
	}
	return bad
}

// extras reports what the client put on the wire per transaction and, by
// replaying the same rounds alternately over the wire and on an embedded
// manager with the same options, how many times dearer the wire makes them.
func (w *wireInst) extras(m map[string]float64) error {
	var verbs, bytes uint64
	issued := 0
	for c, conn := range w.conns {
		verbs += conn.writes.Load()
		bytes += conn.bytes.Load()
		issued += w.issued[c]
	}
	m["lockservice.verbs_per_txn"] = float64(verbs) / float64(issued)
	m["lockservice.bytes_per_txn"] = float64(bytes) / float64(issued)

	lm := hwtwbg.Open(hwtwbg.Options{Period: serverPeriod})
	defer lm.Close()
	const rounds = 8
	var wire, embedded []float64
	for i := 0; i < 3; i++ {
		var out workOut
		wire = append(wire, w.replay(rounds, func(c, r int, o *workOut) {
			var budget atomic.Int64
			budget.Store(int64(w.txns))
			w.work(c, r, &budget, nil, o)
		}, &out))
		embedded = append(embedded, w.replay(rounds, func(c, r int, o *workOut) { w.embedded(lm, c, r, o) }, &out))
		if out.failed > 0 {
			return fmt.Errorf("wire against embedded replay: %d transactions failed", out.failed)
		}
	}
	m["lockservice.wire_over_embedded_x"] = median(wire) / median(embedded)
	return nil
}

// replay runs the first rounds of every client's pool concurrently through
// round and returns the wall seconds that took.
func (w *wireInst) replay(rounds int, round func(c, r int, o *workOut), out *workOut) float64 {
	outs := make([]workOut, len(w.clients))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range w.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				round(c, r%len(w.scripts[c]), &outs[c])
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	for c := range outs {
		out.failed += outs[c].failed
	}
	return wall
}

// embedded is work without the wire: the same round on a Manager in this
// process.
func (w *wireInst) embedded(lm *hwtwbg.Manager, c, script int, out *workOut) {
	ctx := context.Background()
	names, ops := w.names[c], w.scripts[c][script]
	var reqs [hotBatch]hwtwbg.LockRequest
	reqs[0] = hwtwbg.LockRequest{Resource: "hot/0", Mode: hwtwbg.X}
	for t := 0; t < w.txns; t++ {
		txnOps := ops[t*w.perTxn : (t+1)*w.perTxn]
		tx := lm.Begin()
		tx.SetTag(uint64(c + 1))
		var err error
		if w.hot {
			for i, o := range txnOps[:hotBatch-1] {
				reqs[i+1] = hwtwbg.LockRequest{Resource: names[o.res()], Mode: o.mode()}
			}
			err = tx.LockAll(ctx, reqs[:])
			txnOps = txnOps[hotBatch-1:]
		}
		if err == nil {
			for _, o := range txnOps {
				if err = tx.Lock(ctx, names[o.res()], o.mode()); err != nil {
					break
				}
			}
		}
		if err == nil {
			err = tx.Commit()
		}
		if err != nil {
			tx.Abort()
			out.failed++
		}
		tx.Recycle()
	}
}
