package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hwtwbg"
)

const (
	stormBystanders = 512 // transactions that hold their locks for the whole run
	bystanderLocks  = 4
	stormIterations = 4   // per round
	stormBlend      = 256 // reference units after every round: an echo round trip and a spin unit each
	// Iterations pre-generated, each naming its resources afresh, so which
	// shards the cycles span differs from one activation to the next. A 12 s
	// run plays some 1500 of them; the pool is this large so that set-up is
	// a few tenths of a second of single-threaded work, which a millisecond
	// of jitter does not move.
	stormPool = 65536
	// stuckAfter is how long an iteration (5 ms when all is well) may take
	// before the run gives up: a detector that leaves a participant parked
	// must fail the run, not hang it.
	stuckAfter       = 10 * time.Second
	stormRings       = 4 // X-rings of ringSize transactions: one TDR-1 victim each
	ringSize         = 4
	stormTableaux    = 4 // the TestManualDetectAndTDR2 tableau: resolved by TDR-2, nobody aborted
	waitersPerCycle  = 2 // S requests queued behind every ring and tableau
	stormCycles      = stormRings + stormTableaux
	stormTxns        = stormRings*ringSize + stormTableaux*3 + stormCycles*waitersPerCycle
	stormNames       = stormRings*ringSize + stormTableaux*2 // resources an iteration names
	wantAborted      = stormRings
	wantRepositioned = stormTableaux
)

// stormReq is one lock request of an iteration's plan. The plan is the same
// in every iteration; res is which of the iteration's stormNames resources
// the request names.
type stormReq struct {
	p    int // participant and transaction index within the iteration
	res  int
	mode hwtwbg.Mode
}

// stormPlan is the tableau. The driver takes the holds itself, without
// blocking; then every transaction blocks exactly once, on its step:
// participant p parks in Txn.Lock until the activation (or a commit it
// triggers) frees it.
func stormPlan() (holds, steps []stormReq) {
	p, res := 0, 0
	for i := 0; i < stormRings; i++ {
		for j := 0; j < ringSize; j++ {
			holds = append(holds, stormReq{p + j, res + j, hwtwbg.X})
		}
		for j := 0; j < ringSize; j++ {
			steps = append(steps, stormReq{p + j, res + (j+1)%ringSize, hwtwbg.X})
		}
		p += ringSize
		for w := 0; w < waitersPerCycle; w++ {
			steps = append(steps, stormReq{p, res, hwtwbg.S})
			p++
		}
		res += ringSize
	}
	for i := 0; i < stormTableaux; i++ {
		q, h := res, res+1
		t1, t2, t3 := p, p+1, p+2
		holds = append(holds, stormReq{t1, q, hwtwbg.IS}, stormReq{t3, h, hwtwbg.X})
		steps = append(steps,
			stormReq{t2, q, hwtwbg.X},
			stormReq{t3, q, hwtwbg.S},
			stormReq{t1, h, hwtwbg.S}) // closes the cycle T1 -> T3 -> (queue) -> T1
		p += 3
		for w := 0; w < waitersPerCycle; w++ {
			steps = append(steps, stormReq{p, h, hwtwbg.S})
			p++
		}
		res += 2
	}
	return holds, steps
}

type stormCmd struct {
	txn  *hwtwbg.Txn
	res  hwtwbg.ResourceID
	mode hwtwbg.Mode
	id   int // span transaction id
}

type stormDone struct {
	at     time.Time // when Lock returned
	victim bool
	err    error
}

type stormInst struct {
	lm           *hwtwbg.Manager
	ctx          context.Context // the participants' Lock calls; cancelled when an iteration is stuck
	cancel       context.CancelFunc
	stuck        *time.Timer
	bystanders   []*hwtwbg.Txn
	holds, steps []stormReq
	// The pre-generated iterations, each one string of its stormNames
	// names of nameLen bytes: a pool of a million names with few pointers
	// for the collector to follow, and a name the journal still holds at
	// the end keeps one iteration's names alive, not the pool.
	scripts        []string
	cmd            []chan stormCmd // one per participant
	done           chan stormDone
	sbs            []*spanBuf // participants' span buffers for the current round
	wg             sync.WaitGroup
	txns           [stormTxns]*hwtwbg.Txn
	issued         int // iterations, every phase
	badActivations int
	echo           *echoRef
	spin           *spinRef
}

func setupStorm(cfg config) (instance, error) {
	s := &stormInst{
		lm: hwtwbg.Open(hwtwbg.Options{Period: 0}),
		// Buffered for every participant of an iteration, so none waits
		// on the driver, which is inside Detect while they finish.
		done: make(chan stormDone, stormTxns),
		sbs:  make([]*spanBuf, stormTxns),
		spin: newSpinRef(1),
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.stuck = time.NewTimer(stuckAfter)
	// About a third of an iteration is parking and waking 44 goroutines
	// one at a time, which on a shared host costs what a one-connection
	// echo round trip costs; the rest is the activation computing on one
	// thread, which costs what the spin loop costs. The reference is a
	// blend in that proportion: against the echo alone the ratio fell by a
	// sixth when the host was busy, because waking got dearer and
	// computing did not.
	var err error
	if s.echo, err = newEchoRef(1, 16); err != nil {
		s.lm.Close()
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	ctx := context.Background()
	for b := 0; b < stormBystanders; b++ {
		t := s.lm.Begin()
		for j := 0; j < bystanderLocks; j++ {
			res := hwtwbg.ResourceID(fmt.Sprintf("by/%d-%08x/%d", b, rng.Uint32(), j))
			m := hwtwbg.S
			if rng.Intn(2) == 1 {
				m = hwtwbg.X
			}
			if err := t.Lock(ctx, res, m); err != nil {
				s.close()
				return nil, fmt.Errorf("bystander lock: %w", err)
			}
		}
		s.bystanders = append(s.bystanders, t)
	}
	s.holds, s.steps = stormPlan()
	s.scripts = make([]string, cfg.scaled(stormPool, 4))
	names := make([]byte, 0, stormNames*nameLen)
	for i := range s.scripts {
		names = names[:0]
		for k := 0; k < stormNames; k++ {
			names = fmt.Appendf(names, "res%02d/%08x", k, rng.Uint32())
		}
		s.scripts[i] = string(names)
	}
	for p := 0; p < stormTxns; p++ {
		ch := make(chan stormCmd)
		s.cmd = append(s.cmd, ch)
		s.wg.Add(1)
		go s.participant(p, ch)
	}
	return s, nil
}

const nameLen = len("res00/00000000")

// name is resource k of pre-generated iteration i.
func (s *stormInst) name(i, k int) hwtwbg.ResourceID {
	return hwtwbg.ResourceID(s.scripts[i][k*nameLen : (k+1)*nameLen])
}

// participant parks in the one blocking Lock of its transaction, notes when
// it returns, and finishes the transaction.
func (s *stormInst) participant(p int, cmds <-chan stormCmd) {
	defer s.wg.Done()
	for c := range cmds {
		sb := s.sbs[p]
		sp := sb.begin(spTxnLockWait, c.id)
		err := c.txn.Lock(s.ctx, c.res, c.mode)
		d := stormDone{at: time.Now()}
		sb.end(sp)
		switch {
		case err == nil:
			sp = sb.begin(spTxnCommit, c.id)
			d.err = c.txn.Commit()
			sb.end(sp)
		case errors.Is(err, hwtwbg.ErrAborted):
			d.victim = true
			c.txn.Abort()
		default:
			d.err = err
		}
		s.done <- d
	}
}

func (s *stormInst) manager() *hwtwbg.Manager { return s.lm }
func (s *stormInst) workers() int             { return 1 }
func (s *stormInst) dropInputs()              { s.scripts = nil }

func (s *stormInst) ref(_ int, lat []int64) ([]int64, error) {
	return burst(stormBlend, lat, func() error {
		s.spin.unit(0)
		return s.echo.trip(0)
	})
}

func (s *stormInst) sizes() roundSizes {
	return roundSizes{Workers: 1, Txns: stormIterations * stormTxns, RefOps: stormBlend, Reference: "blend_unit", Pool: len(s.scripts) / stormIterations}
}

func (s *stormInst) close() {
	s.cancel()
	s.stuck.Stop()
	for _, ch := range s.cmd {
		close(ch)
	}
	s.wg.Wait()
	s.echo.close()
	s.lm.Close()
}

// work runs one round on the single driver goroutine: stormIterations times
// it builds the tableau, activates the detector once and waits for all 44
// transactions to finish.
func (s *stormInst) work(_, round int, _ *atomic.Int64, tr *tracer, out *workOut) {
	sb := tr.buf(0)
	for p := range s.sbs {
		s.sbs[p] = tr.buf(1 + p)
	}
	ctx := context.Background()
	for it := 0; it < stormIterations; it++ {
		script := (round*stormIterations + it) % len(s.scripts)
		s.issued++
		base := s.issued * stormTxns
		s.stuck.Reset(stuckAfter)
		iter := sb.begin(spIteration, -s.issued)
		for p := range s.txns {
			sp := sb.begin(spMgrBegin, base+p)
			s.txns[p] = s.lm.Begin()
			sb.end(sp)
		}
		for _, h := range s.holds {
			sp := sb.begin(spTxnLock, base+h.p)
			err := s.txns[h.p].Lock(ctx, s.name(script, h.res), h.mode)
			sb.end(sp)
			if err != nil {
				out.failed++
			}
		}
		// Enqueue the blocking requests one at a time: each must be in
		// its queue before the next is issued, or the tableau differs.
		for i, st := range s.steps {
			res := s.name(script, st.res)
			s.cmd[st.p] <- stormCmd{txn: s.txns[st.p], res: res, mode: st.mode, id: base + st.p}
			if !s.awaitBlocked(s.txns[st.p].ID()) {
				s.giveUp(i+1, out, fmt.Sprintf("request %d of the tableau (%s %s) was not queued within %v", i+1, res, st.mode, stuckAfter))
				return
			}
		}
		sp := sb.begin(spDetect, -s.issued)
		called := time.Now()
		stats := s.lm.Detect()
		out.activation = append(out.activation, int64(time.Since(called)))
		sb.end(sp)
		if stats.Aborted != wantAborted || stats.Repositioned != wantRepositioned || stats.FalseCycles != 0 {
			out.failed++
			if s.badActivations++; s.badActivations <= 3 {
				fmt.Fprintf(os.Stderr, "deadlock_storm: activation reported aborted=%d repositioned=%d false_cycles=%d, want %d, %d and 0\n",
					stats.Aborted, stats.Repositioned, stats.FalseCycles, wantAborted, wantRepositioned)
			}
		}
		out.cycles += stormCycles
		out.aborted += stats.Aborted
		victims := 0
		for n := range s.txns {
			select {
			case d := <-s.done:
				out.lat = append(out.lat, int64(d.at.Sub(called)))
				if d.err != nil {
					out.failed++
				}
				if d.victim {
					victims++
				}
			case <-s.stuck.C:
				s.giveUp(len(s.txns)-n, out, fmt.Sprintf("%d of %d transactions were still parked %v after the activation", len(s.txns)-n, len(s.txns), stuckAfter))
				return
			}
		}
		if victims != stats.Aborted {
			out.failed++
		}
		for _, t := range s.txns {
			t.Recycle()
		}
		sb.end(iter)
		out.txns += stormTxns
	}
	for p := range s.sbs {
		tr.fold(1 + p) // the participants are idle: each has reported its transaction done
	}
}

// awaitBlocked polls until transaction id is queued, which takes
// microseconds, and gives up when the iteration's time is up.
func (s *stormInst) awaitBlocked(id hwtwbg.TxnID) bool {
	for spins := 1; !s.lm.Blocked(id); spins++ {
		runtime.Gosched()
		if spins%4096 == 0 {
			select {
			case <-s.stuck.C:
				return false
			default:
			}
		}
	}
	return true
}

// giveUp ends a stuck iteration: it cancels the participants' Lock calls,
// collects the parked ones and marks the run as unable to go on.
func (s *stormInst) giveUp(parked int, out *workOut, why string) {
	s.cancel()
	for ; parked > 0; parked-- {
		<-s.done
	}
	out.failed++
	out.stuck = "deadlock_storm: iteration " + strconv.Itoa(s.issued) + " is stuck: " + why
}

func (s *stormInst) verify() []string {
	var bad []string
	if s.lm.Deadlocked() {
		bad = append(bad, "Manager.Deadlocked() is true after the last round")
	}
	for i, t := range s.bystanders {
		if n := len(t.Held()); n != bystanderLocks {
			bad = append(bad, fmt.Sprintf("bystander %d holds %d locks, want %d", i, n, bystanderLocks))
			break
		}
	}
	return bad
}
