// Benchmarks regenerating the measurable claims of the paper and the
// comparison tables of EXPERIMENTS.md. One benchmark (family) per
// experiment:
//
//	E8  complexity     BenchmarkDetectChain, BenchmarkDetectWideQueues,
//	                   BenchmarkDetectRings, BenchmarkDetectExample41Tiles
//	E9/E10/E14 compare BenchmarkStrategyComparison
//	E11 TDR-2          BenchmarkTDR2Rate
//	E14 enumeration    BenchmarkCycleEnumerationVsDetector
//	API                BenchmarkManagerUncontended, BenchmarkManagerConflict
//
// Tables 1 and 2 (E1, E2) are benchmarked in internal/lock; the graph
// build (E4) in internal/twbg.
package hwtwbg

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"hwtwbg/internal/detect"
	"hwtwbg/internal/sim"
	"hwtwbg/internal/synth"
	"hwtwbg/internal/table"
	"hwtwbg/internal/twbg"
)

// benchDetect builds a topology per iteration and runs one periodic
// activation, reporting edge visits and searched cycles.
func benchDetect(b *testing.B, build func() *table.Table) {
	var visits, cycles int
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tb := build()
		d := detect.New(tb, detect.Config{})
		b.StartTimer()
		res := d.Run()
		visits += res.EdgeVisits
		cycles += res.CyclesSearched
	}
	b.ReportMetric(float64(visits)/float64(b.N), "edgevisits/op")
	b.ReportMetric(float64(cycles)/float64(b.N), "cycles/op")
}

func BenchmarkDetectChain(b *testing.B) {
	for _, n := range []int{100, 400, 1600} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchDetect(b, func() *table.Table { return synth.Chain(n) })
		})
	}
}

func BenchmarkDetectWideQueues(b *testing.B) {
	for _, m := range []int{10, 40, 160} {
		b.Run(fmt.Sprintf("m=%d,q=20", m), func(b *testing.B) {
			benchDetect(b, func() *table.Table { return synth.WideQueues(m, 20) })
		})
	}
}

func BenchmarkDetectRings(b *testing.B) {
	for _, k := range []int{5, 20, 80} {
		b.Run(fmt.Sprintf("k=%d,size=4", k), func(b *testing.B) {
			benchDetect(b, func() *table.Table { return synth.Rings(k, 4) })
		})
	}
}

func BenchmarkDetectExample41Tiles(b *testing.B) {
	for _, k := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("tiles=%d", k), func(b *testing.B) {
			benchDetect(b, func() *table.Table { return synth.Example41Tiles(k) })
		})
	}
}

// BenchmarkCycleEnumerationVsDetector contrasts Johnson-style
// elementary-cycle enumeration (what Jiang's participant listing pays
// for in the worst case) with the detector's c'-bounded search, on the
// nested-cycle tiles.
func BenchmarkCycleEnumerationVsDetector(b *testing.B) {
	const tiles = 16
	b.Run("enumerate-all-cycles", func(b *testing.B) {
		tb := synth.Example41Tiles(tiles)
		g := twbg.Build(tb)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := len(g.Cycles(0)); got != 4*tiles {
				b.Fatalf("cycles = %d", got)
			}
		}
	})
	b.Run("detector-search", func(b *testing.B) {
		benchDetect(b, func() *table.Table { return synth.Example41Tiles(tiles) })
	})
}

// BenchmarkStrategyComparison runs a short contended simulation per
// strategy, reporting commits and aborts per run (E9/E10/E14).
func BenchmarkStrategyComparison(b *testing.B) {
	cfg := sim.Config{
		Terminals: 8,
		Resources: 16,
		TxnLength: 6,
		WriteFrac: 0.4,
		HotProb:   0.5,
		Period:    10,
		Duration:  4000,
		Seed:      7,
	}
	factories := []struct {
		name string
		f    sim.Factory
	}{
		{"park-hwtwbg", sim.Park},
		{"park-no-tdr2", sim.ParkNoTDR2},
		{"park-continuous", sim.ParkContinuous},
		{"wfg-periodic", sim.WFGPeriodic},
		{"wfg-continuous", sim.WFGContinuous},
		{"agrawal", sim.Agrawal},
		{"elmagarmid", sim.Elmagarmid},
		{"jiang", sim.Jiang},
		{"timeout", sim.Timeout(50)},
	}
	for _, fc := range factories {
		b.Run(fc.name, func(b *testing.B) {
			var commits, aborts, wasted int
			for i := 0; i < b.N; i++ {
				m := sim.Run(cfg, fc.f)
				commits += m.Commits
				aborts += m.Aborts
				wasted += m.WastedOps
			}
			b.ReportMetric(float64(commits)/float64(b.N), "commits/run")
			b.ReportMetric(float64(aborts)/float64(b.N), "aborts/run")
			b.ReportMetric(float64(wasted)/float64(b.N), "wastedops/run")
		})
	}
}

// BenchmarkTDR2Rate measures the zero-abort resolution rate on a
// conversion-heavy workload (E11).
func BenchmarkTDR2Rate(b *testing.B) {
	cfg := sim.Config{
		Terminals: 8,
		Resources: 16,
		TxnLength: 6,
		WriteFrac: 0.2,
		ConvFrac:  0.3,
		HotProb:   0.5,
		Period:    10,
		Duration:  4000,
		Seed:      7,
	}
	var repositions, aborts int
	for i := 0; i < b.N; i++ {
		m := sim.Run(cfg, sim.Park)
		repositions += m.Repositionings
		aborts += m.Aborts
	}
	b.ReportMetric(float64(repositions)/float64(b.N), "tdr2/run")
	b.ReportMetric(float64(aborts)/float64(b.N), "aborts/run")
}

// BenchmarkManagerUncontended measures the public API fast path.
func BenchmarkManagerUncontended(b *testing.B) {
	lm := Open(Options{})
	defer lm.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		uncontendedTxn(b, lm)
	}
}

// uncontendedTxn is one transaction on the fast path: two locks no one
// else wants, then commit.
func uncontendedTxn(tb testing.TB, lm *Manager) {
	ctx := context.Background()
	t := lm.Begin()
	if err := t.Lock(ctx, "r1", S); err != nil {
		tb.Fatal(err)
	}
	if err := t.Lock(ctx, "r2", X); err != nil {
		tb.Fatal(err)
	}
	if err := t.Commit(); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkManagerConflict measures grant hand-off between two
// goroutine-less transactions alternating on one resource.
func BenchmarkManagerConflict(b *testing.B) {
	lm := Open(Options{})
	defer lm.Close()
	b.ResetTimer()
	runManagerConflict(b, lm)
}

// runManagerConflict is one conflict hand-off loop over an open
// manager, shared by BenchmarkManagerConflict and the journal on/off
// comparison.
func runManagerConflict(b *testing.B, lm *Manager) {
	for i := 0; i < b.N; i++ {
		conflictRound(b, lm)
	}
}

// conflictRound hands one X lock from a holder to a waiter parked on
// its own goroutine.
func conflictRound(tb testing.TB, lm *Manager) {
	ctx := context.Background()
	a := lm.Begin()
	if err := a.Lock(ctx, "hot", X); err != nil {
		tb.Fatal(err)
	}
	c := lm.Begin()
	done := make(chan error, 1)
	go func() { done <- c.Lock(ctx, "hot", X) }()
	for !lm.Blocked(c.ID()) {
		runtime.Gosched()
	}
	if err := a.Commit(); err != nil {
		tb.Fatal(err)
	}
	if err := <-done; err != nil {
		tb.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		tb.Fatal(err)
	}
}

// benchLockAllKeys is the shared multi-key working set for the LockAll
// benchmarks: enough keys that a batch meaningfully amortizes per-shard
// mutex rounds, few enough to stay a realistic transaction footprint.
const benchLockAllKeys = 16

func benchLockAllReqs() []LockRequest {
	reqs := make([]LockRequest, benchLockAllKeys)
	for i := range reqs {
		reqs[i] = LockRequest{Resource: ResourceID(fmt.Sprintf("ba%03d", i)), Mode: X}
	}
	return reqs
}

// BenchmarkManagerLockAll contrasts N single Lock calls against one
// LockAll batch over the same keys, reporting the shard-mutex rounds
// each path costs per transaction (mutexacq/op, from ShardStats) — the
// quantity group acquisition exists to shrink: the batch takes each
// shard's mutex once per round instead of once per lock.
func BenchmarkManagerLockAll(b *testing.B) {
	reqs := benchLockAllReqs()
	mutexRounds := func(lm *Manager) uint64 {
		var n uint64
		for _, s := range lm.ShardStats() {
			n += s.MutexAcquires
		}
		return n
	}
	b.Run("sequential", func(b *testing.B) {
		lm := Open(Options{})
		defer lm.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lockEachTxn(b, lm, reqs)
		}
		b.StopTimer()
		b.ReportMetric(float64(mutexRounds(lm))/float64(b.N), "mutexacq/op")
	})
	b.Run("batched", func(b *testing.B) {
		lm := Open(Options{})
		defer lm.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lockAllTxn(b, lm, reqs)
		}
		b.StopTimer()
		b.ReportMetric(float64(mutexRounds(lm))/float64(b.N), "mutexacq/op")
	})
	// A kv PutAll-sized batch over two shards: the ordering pass is
	// linear in the batch, so ns/lock stays flat as batches grow.
	b.Run("batched1000", func(b *testing.B) {
		lm := Open(Options{Shards: 2})
		defer lm.Close()
		big := make([]LockRequest, 1000)
		for i := range big {
			big[i] = LockRequest{Resource: ResourceID(fmt.Sprintf("bb%04d", i)), Mode: X}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lockAllTxn(b, lm, big)
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(big)), "ns/lock")
	})
}

// lockEachTxn takes reqs one Lock call at a time, commits and recycles
// the transaction.
func lockEachTxn(tb testing.TB, lm *Manager, reqs []LockRequest) {
	ctx := context.Background()
	t := lm.Begin()
	for _, rq := range reqs {
		if err := t.Lock(ctx, rq.Resource, rq.Mode); err != nil {
			tb.Fatal(err)
		}
	}
	if err := t.Commit(); err != nil {
		tb.Fatal(err)
	}
	t.Recycle()
}

// lockAllTxn takes reqs in one LockAll batch, commits and recycles the
// transaction.
func lockAllTxn(tb testing.TB, lm *Manager, reqs []LockRequest) {
	t := lm.Begin()
	if err := t.LockAll(context.Background(), reqs); err != nil {
		tb.Fatal(err)
	}
	if err := t.Commit(); err != nil {
		tb.Fatal(err)
	}
	t.Recycle()
}

// BenchmarkLockAllAB is the in-process A/B micro-harness: every
// iteration runs one per-lock transaction AND one batched transaction
// over the same multi-key working set, in the same process and run, so
// the reported ratio cannot be an artifact of cross-run environment
// drift (E22 showed cross-archive ns/op on this host is). A single
// shard maximizes what batching can amortize (one mutex round instead
// of N); speedup is sequential time over batched time.
func BenchmarkLockAllAB(b *testing.B) {
	lm := Open(Options{Shards: 1})
	defer lm.Close()
	reqs := benchLockAllReqs()
	var seqNs, batNs time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		lockEachTxn(b, lm, reqs)
		seqNs += time.Since(start)

		start = time.Now()
		lockAllTxn(b, lm, reqs)
		batNs += time.Since(start)
	}
	b.StopTimer()
	b.ReportMetric(float64(seqNs.Nanoseconds())/float64(b.N), "seq-ns/op")
	b.ReportMetric(float64(batNs.Nanoseconds())/float64(b.N), "batched-ns/op")
	if batNs > 0 {
		b.ReportMetric(float64(seqNs)/float64(batNs), "speedup")
	}
}

// BenchmarkManagerConflictJournal prices the flight recorder on the
// contended hand-off path (the workload with the most journal traffic
// per operation: begin, block, waited grant, commit records for every
// iteration). journal=on is the default configuration — the delta
// against journal=off is the recorder's whole cost, and allocs/op must
// match (the recorder never allocates on the hot path); see
// EXPERIMENTS.md E22.
func BenchmarkManagerConflictJournal(b *testing.B) {
	for _, v := range []struct {
		name string
		size int
	}{
		{"journal=on", 0},
		{"journal=off", -1},
	} {
		b.Run(v.name, func(b *testing.B) {
			lm := Open(Options{JournalSize: v.size})
			defer lm.Close()
			b.ReportAllocs()
			b.ResetTimer()
			runManagerConflict(b, lm)
		})
	}
}

// BenchmarkManagerParallel measures multi-core scaling of the public
// API under b.RunParallel. The low-conflict variant spreads each
// transaction's two locks over a large key space, so almost no two
// goroutines ever touch the same resource: this is the path the sharded
// facade parallelizes and the serial Manager bottlenecks on one mutex.
// The high-conflict variant squeezes every transaction onto a handful
// of keys (locked in sorted order, so the workload itself is
// deadlock-free) and measures contended hand-off instead.
func BenchmarkManagerParallel(b *testing.B) {
	variants := []struct {
		name string
		keys int
		mode Mode
	}{
		{"low-conflict", 64 * 1024, X},
		{"high-conflict", 8, X},
		{"read-shared", 64 * 1024, S},
	}
	shardCounts := []int{1, runtime.GOMAXPROCS(0)}
	if runtime.GOMAXPROCS(0) == 1 {
		shardCounts = []int{1, 8} // still exercises the sharded paths
	}
	for _, v := range variants {
		for _, shards := range shardCounts {
			b.Run(fmt.Sprintf("%s/shards=%d", v.name, shards), func(b *testing.B) {
				lm := Open(Options{Shards: shards})
				defer lm.Close()
				ctx := context.Background()
				var seed atomic.Int64
				b.ReportAllocs()
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					rng := rand.New(rand.NewSource(seed.Add(1)))
					for pb.Next() {
						t := lm.Begin()
						i, j := rng.Intn(v.keys), rng.Intn(v.keys)
						if i > j {
							i, j = j, i
						}
						if err := t.Lock(ctx, ResourceID(fmt.Sprintf("k%07d", i)), v.mode); err != nil {
							b.Fatal(err)
						}
						if j != i {
							if err := t.Lock(ctx, ResourceID(fmt.Sprintf("k%07d", j)), v.mode); err != nil {
								b.Fatal(err)
							}
						}
						if err := t.Commit(); err != nil {
							b.Fatal(err)
						}
					}
				})
			})
		}
	}
}

// BenchmarkMetricsSnapshot prices reading the full metric set while the
// manager is live (the debug-endpoint path; must not stop the world).
func BenchmarkMetricsSnapshot(b *testing.B) {
	lm := openMetricsSnapshot(b)
	defer lm.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metricsSnapshot(b, lm)
	}
}

// openMetricsSnapshot opens a one-shard manager with one lock held.
// The shard count is fixed because a snapshot's allocations follow it.
func openMetricsSnapshot(tb testing.TB) *Manager {
	lm := Open(Options{Shards: 1})
	if err := lm.Begin().Lock(context.Background(), "r", X); err != nil {
		tb.Fatal(err)
	}
	return lm
}

func metricsSnapshot(tb testing.TB, lm *Manager) {
	if lm.MetricsSnapshot().Total.Grants == 0 {
		tb.Fatal("lost grants")
	}
}

// BenchmarkDetectorActivation prices one snapshot-detector activation.
// dirtyN: 32 populated shards, of which 0%, 10% or 90% see lock churn
// between activations — dirty0 is the incremental snapshot's best case
// (every shard reused), dirty90 recopies nearly everything. bystandersN:
// hwbench's deadlock_storm shape — N locks that no one waits on, held by
// 512 pinned transactions, and four X-rings of four transactions closed
// into deadlocks that the activation resolves; an activation copies what
// can carry an edge, so the 4096-lock table must cost what the 2048-lock
// one does (TestActivationCostIgnoresBystanders asserts it). Churn and
// ring set-up run outside the timer, so the number is the activation
// alone.
func BenchmarkDetectorActivation(b *testing.B) {
	for _, tc := range []struct {
		name  string
		dirty int // shards churned per activation, of 32
	}{
		{"dirty0", 0},
		{"dirty10", 3},
		{"dirty90", 29},
	} {
		b.Run(tc.name, func(b *testing.B) {
			m, churn := openChurned(b, tc.dirty)
			defer m.Close()
			m.Detect() // warm-up: the one full copy
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				churn()
				b.StartTimer()
				m.Detect()
			}
		})
	}
	for _, locks := range []int{2048, 4096} {
		b.Run(fmt.Sprintf("bystanders%d", locks), func(b *testing.B) {
			s := newRingStorm(b, 512, locks/512)
			defer s.close()
			s.arm(b) // warm-up: the detector's and the table's storage grow to a round's size
			s.m.Detect()
			s.drain(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s.arm(b)
				b.StartTimer()
				st := s.m.Detect()
				b.StopTimer()
				if st.Aborted != stormRings {
					b.Fatalf("activation = %+v, want %d aborts", st, stormRings)
				}
				s.drain(b)
			}
		})
	}
}

// openChurned opens a 32-shard manager with eight S locks pinned in
// every shard, and returns it with a churn function that runs one
// transaction in each of the first dirty shards, so the next activation
// finds exactly those shards changed.
func openChurned(tb testing.TB, dirty int) (*Manager, func()) {
	const shards = 32
	m := Open(Options{Shards: shards})
	ctx := context.Background()
	pin := m.Begin()
	for i := 0; i < shards; i++ {
		for j := 0; j < 8; j++ {
			if err := pin.Lock(ctx, shardResource(tb, m, uint32(i), j), S); err != nil {
				tb.Fatal(err)
			}
		}
	}
	churn := make([]ResourceID, dirty)
	for i := range churn {
		churn[i] = shardResource(tb, m, uint32(i), 100)
	}
	return m, func() {
		for _, r := range churn {
			lockEachTxn(tb, m, []LockRequest{{Resource: r, Mode: X}})
		}
	}
}

// ringStorm drives hwbench's deadlock_storm shape against one manager:
// bystander transactions pinned on locks that nobody else wants, and per
// round stormRings X-rings of four transactions, each closed into a
// deadlock — plus, when tableau is set, one TestManualDetectAndTDR2
// tableau, which the activation resolves by a TDR-2 repositioning.
type ringStorm struct {
	m       *Manager
	pins    []*Txn
	round   int
	txns    [stormRings * 4]*Txn
	tableau bool
	tab     [3]*Txn // the tableau's T1, T2, T3, when armed
	done    chan error
}

const stormRings = 4

func newRingStorm(tb testing.TB, bystanders, locksEach int) *ringStorm {
	s := &ringStorm{m: Open(Options{Shards: 2}), done: make(chan error, stormRings*4+3)}
	ctx := context.Background()
	for i := 0; i < bystanders; i++ {
		pin := s.m.Begin()
		for j := 0; j < locksEach; j++ {
			if err := pin.Lock(ctx, ResourceID(fmt.Sprintf("by/%d/%d", i, j)), S); err != nil {
				tb.Fatal(err)
			}
		}
		s.pins = append(s.pins, pin)
	}
	return s
}

func (s *ringStorm) close() { s.m.Close() }

// ringName is resource j (mod 4) of ring in the current round.
func (s *ringStorm) ringName(ring, j int) ResourceID {
	return ResourceID(fmt.Sprintf("ring/%d/%d/%d", s.round, ring, j%4))
}

// tabName is the current round's tableau resource q or h.
func (s *ringStorm) tabName(r string) ResourceID {
	return ResourceID(fmt.Sprintf("tab/%d/%s", s.round, r))
}

// arm builds the round's rings and returns once every member is
// blocked: member j of a ring holds resource j and waits for j+1. The
// tableau, if any, follows: T1 holds IS on q and T3 X on h, then T2
// queues X and T3 S on q, and T1's S on h closes the cycle.
func (s *ringStorm) arm(tb testing.TB) {
	ctx := context.Background()
	s.round++
	for i := range s.txns {
		s.txns[i] = s.m.Begin()
		if err := s.txns[i].Lock(ctx, s.ringName(i/4, i), X); err != nil {
			tb.Fatal(err)
		}
	}
	for i, tx := range s.txns {
		s.park(tx, s.ringName(i/4, i+1), X)
	}
	if !s.tableau {
		return
	}
	t1, t2, t3 := s.m.Begin(), s.m.Begin(), s.m.Begin()
	s.tab = [3]*Txn{t1, t2, t3}
	if err := t1.Lock(ctx, s.tabName("q"), IS); err != nil {
		tb.Fatal(err)
	}
	if err := t3.Lock(ctx, s.tabName("h"), X); err != nil {
		tb.Fatal(err)
	}
	s.park(t2, s.tabName("q"), X)
	s.park(t3, s.tabName("q"), S)
	s.park(t1, s.tabName("h"), S)
}

// park issues tx's blocking request on its own goroutine, which then
// commits (or, as a victim, aborts), and returns once tx is blocked.
func (s *ringStorm) park(tx *Txn, r ResourceID, mode Mode) {
	go func() {
		err := tx.Lock(context.Background(), r, mode)
		if err == nil {
			err = tx.Commit()
		} else if errors.Is(err, ErrAborted) {
			tx.Abort()
			err = nil
		}
		s.done <- err
	}()
	for !s.m.Blocked(tx.ID()) {
		runtime.Gosched()
	}
}

// drain waits until every member of the round has finished: the victims
// abort, and each ring then unwinds one commit at a time.
func (s *ringStorm) drain(tb testing.TB) {
	members := s.txns[:]
	if s.tableau {
		members = append(members, s.tab[:]...)
	}
	for range members {
		if err := <-s.done; err != nil {
			tb.Fatal(err)
		}
	}
	for _, tx := range members {
		tx.Recycle()
	}
}

// BenchmarkDetectSteadyState measures repeated activations of ONE
// detector on a live (deadlock-free) table — the deployed shape, where
// the vertex pool, maps and arenas are recycled across runs and a
// steady-state activation allocates nothing.
func BenchmarkDetectSteadyState(b *testing.B) {
	d := newSteadyDetector()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		steadyRun(b, d)
	}
}

// newSteadyDetector returns a detector over a 200-transaction chain,
// warmed up: its storage has grown to the table's size.
func newSteadyDetector() *detect.Detector {
	d := detect.New(synth.Chain(200), detect.Config{})
	d.Run()
	return d
}

func steadyRun(tb testing.TB, d *detect.Detector) {
	if d.Run().CyclesSearched != 0 {
		tb.Fatal("chain must stay clean")
	}
}
