package hwtwbg

import (
	"context"
	"errors"
	"sort"
	"testing"
	"time"
)

// TestActivationCostIgnoresBystanders is the EXPERIMENTS.md E26 property:
// an activation costs what the contention costs, not what the lock
// table does. Two managers run hwbench's deadlock_storm shape side by
// side — four X-rings resolved per activation among pinned bystander
// transactions — with their rounds interleaved so the host's drift
// lands on both, and the larger side doubles one dimension of the
// bystanders: their locks (512 transactions holding 2048 locks against
// 4096), or their transactions (512 against 1024, four locks each).
// What the detector copied is checked exactly (the rings' 16 resources,
// whatever the table holds), and doubling must move the median
// activation by less than 15%: a copy takes only contended resources,
// and a waiter's victim price rides on its wait (EXPERIMENTS.md E26,
// E31).
func TestActivationCostIgnoresBystanders(t *testing.T) {
	for _, row := range []struct {
		name         string
		small, large [2]int // bystander transactions, locks each
	}{
		{"locks", [2]int{512, 4}, [2]int{512, 8}},
		{"transactions", [2]int{512, 4}, [2]int{1024, 4}},
	} {
		t.Run(row.name, func(t *testing.T) {
			small, large := newRingStorm(t, row.small[0], row.small[1]), newRingStorm(t, row.large[0], row.large[1])
			defer small.close()
			defer large.close()
			best := bystanderRatio(t, small, large)
			t.Logf("median activation with %d×%d bystander locks over %d×%d: %.3f",
				row.large[0], row.large[1], row.small[0], row.small[1], best)
			if best >= 1.15 {
				t.Errorf("doubling the bystander %s multiplied the median activation by %.2f, want < 1.15", row.name, best)
			}
		})
	}
}

// bystanderRatio runs interleaved storm rounds on small and large and
// returns the median ratio of their activation times. Each round's pair
// of activations runs within a millisecond, so the per-round ratio is
// free of the host's drift; the median is judged, best of three
// attempts, so that one noisy episode on a shared machine cannot fail
// the test.
func bystanderRatio(t *testing.T, small, large *ringStorm) float64 {
	const rounds = 200
	for _, s := range []*ringStorm{small, large} {
		m := s.m
		m.testHookAfterCopy = func() {
			if n := len(m.snap.ActiveTable().Resources()); n != 4*stormRings {
				t.Errorf("activation copied %d resources, want the rings' %d", n, 4*stormRings)
			}
		}
	}
	best := 0.0
	for attempt := 0; attempt < 3 && (attempt == 0 || best >= 1.15); attempt++ {
		ratios := make([]float64, 0, rounds)
		for round := 0; round < rounds; round++ {
			var total [2]time.Duration
			for i, s := range []*ringStorm{small, large} {
				s.arm(t)
				if st := s.m.Detect(); st.Aborted != stormRings || st.FalseCycles != 0 {
					t.Fatalf("activation = %+v, want %d aborts and no false cycle", st, stormRings)
				}
				rep := lastActivation(t, s.m)
				total[i] = rep.Total
				s.drain(t)
			}
			ratios = append(ratios, float64(total[1])/float64(total[0]))
		}
		sort.Float64s(ratios)
		if median := ratios[len(ratios)/2]; attempt == 0 || median < best {
			best = median
		}
	}
	return best
}

// TestResolutionInvalidatesOnlyTouchedShards pins per-sub invalidation:
// 32 shards pinned by a long-lived holder, one two-shard deadlock per
// round. Resolving it rewrites two sub-snapshots; the next activation
// must recopy those — which the victim's and the survivor's own
// releases dirtied anyway — and reuse the other thirty, where it used
// to recopy all 32 after any resolution.
func TestResolutionInvalidatesOnlyTouchedShards(t *testing.T) {
	const shards = 32
	m := Open(Options{Shards: shards})
	defer m.Close()
	ctx := context.Background()
	pin := m.Begin()
	for i := 0; i < shards; i++ {
		if err := pin.Lock(ctx, shardResource(t, m, uint32(i), 0), S); err != nil {
			t.Fatal(err)
		}
	}
	m.Detect() // the one full copy

	for round := 0; round < 8; round++ {
		si, sj := uint32(2*round)%shards, uint32(2*round+1)%shards
		x, y := shardResource(t, m, si, 100+round), shardResource(t, m, sj, 100+round)
		a, b := m.Begin(), m.Begin()
		if err := a.Lock(ctx, x, X); err != nil {
			t.Fatal(err)
		}
		if err := b.Lock(ctx, y, X); err != nil {
			t.Fatal(err)
		}
		errs := make(chan error, 2)
		go func() { errs <- a.Lock(ctx, y, X) }()
		waitBlocked(t, m, a.ID())
		go func() { errs <- b.Lock(ctx, x, X) }()
		waitBlocked(t, m, b.ID())

		st := m.Detect()
		if st.Aborted != 1 || st.FalseCycles != 0 {
			t.Fatalf("round %d: activation = %+v, want one abort", round, st)
		}
		if rep := lastActivation(t, m); rep.ShardsCopied > 2 {
			t.Fatalf("round %d: resolving activation copied %d shards, want the deadlock's 2", round, rep.ShardsCopied)
		}
		for i := 0; i < 2; i++ {
			if err := <-errs; err != nil && !errors.Is(err, ErrAborted) {
				t.Fatal(err)
			}
		}
		a.Abort()
		b.Abort()

		m.Detect()
		rep := lastActivation(t, m)
		if rep.ShardsCopied > 2 || rep.ShardsSkipped < shards-2 {
			t.Fatalf("round %d: activation after the resolution copied %d shards and reused %d, want at most 2 copied",
				round, rep.ShardsCopied, rep.ShardsSkipped)
		}
	}
}

// TestDefaultCostCountsInactiveLocks pins which count the default
// victim cost reads. The snapshot's merged table knows only the locks on
// resources somebody waits on, so in a two-party cycle it shows one
// lock each — a tie, which goes to the lower id. Here the lower id also
// holds six locks nobody wants, in a shard with no waiter at all: by
// Snapshot.HeldCount it is the dearer victim (7+1 against 1+1), and the
// other one must be chosen.
func TestDefaultCostCountsInactiveLocks(t *testing.T) {
	m := Open(Options{Shards: 4})
	defer m.Close()
	ctx := context.Background()
	rs := distinctShardResources(t, m, 3)
	a, b := m.Begin(), m.Begin()
	mustLock(t, a, rs[0])
	mustLock(t, b, rs[1])
	for i := 0; i < 6; i++ {
		mustLock(t, a, shardResource(t, m, shardIndex(rs[2], m.mask), 700+i))
	}
	aErr, bErr := make(chan error, 1), make(chan error, 1)
	go func() { aErr <- a.Lock(ctx, rs[1], X) }()
	waitBlocked(t, m, a.ID())
	go func() { bErr <- b.Lock(ctx, rs[0], X) }()
	waitBlocked(t, m, b.ID())

	m.testHookAfterCopy = func() {
		if n, all := m.snap.ActiveTable().HeldCount(a.ID()), m.snap.HeldCount(a.ID()); n != 1 || all != 7 {
			t.Errorf("snapshot counts %d locks of a at active resources and %d in all, want 1 and 7", n, all)
		}
	}
	if st := m.Detect(); st.Aborted != 1 || st.FalseCycles != 0 {
		t.Fatalf("activation = %+v, want one abort", st)
	}
	if err := <-bErr; !errors.Is(err, ErrAborted) {
		t.Fatalf("b's lock = %v, want the holder of fewer locks aborted", err)
	}
	b.Abort()
	if err := <-aErr; err != nil {
		t.Fatalf("a's lock = %v, want it granted by b's departure", err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
}
