package hwtwbg

import (
	"maps"
	"math"
	"runtime/debug"
	"slices"
	"testing"

	"hwtwbg/internal/jview"
	"hwtwbg/journal"
)

// raceEnabled reports whether this test binary was built with -race.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// detectAllocs runs one Detect inside testing.AllocsPerRun and returns
// its Stats and allocation count. AllocsPerRun calls its function once,
// unmeasured, before the measured run; that call must not consume the
// deadlocks the caller armed, so it does nothing.
func detectAllocs(m *Manager) (Stats, float64) {
	var st Stats
	warm := true
	n := testing.AllocsPerRun(1, func() {
		if warm {
			warm = false
			return
		}
		st = m.Detect()
	})
	return st, n
}

// TestActivationAllocs pins a steady-state activation at zero heap
// allocations: once the detector's arenas, the validate-then-act
// scratch, the snapshot and the tables' queues have grown to a round's
// size, an activation that resolves four X-rings by TDR-1 and one
// tableau by TDR-2 allocates nothing, and neither does an idle one,
// whether its shards were dirtied since the last copy or not.
//
// The tables recycle Resource records LIFO, each with the capacity its
// last use left it, so a record reused for a busier resource can still
// grow its holder list now and then well into the run (ten warm-up
// rounds left one in five runs of this test failing). Such growth does
// not recur, so the warm-up is long and each count is the least over a
// few rounds, which a per-activation allocation would still show.
func TestActivationAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector's instrumentation allocates")
	}
	s := newRingStorm(t, 64, 4)
	defer s.close()
	s.tableau = true
	for i := 0; i < 40; i++ {
		s.arm(t)
		s.m.Detect()
		s.drain(t)
	}
	whens := []string{"resolving", "idle after the round unwound", "idle with every shard clean"}
	least := []float64{math.Inf(1), math.Inf(1), math.Inf(1)}
	for round := 0; round < 3; round++ {
		s.arm(t)
		st, n := detectAllocs(s.m)
		if st.Aborted != stormRings || st.Repositioned != 1 || st.FalseCycles != 0 {
			t.Fatalf("activation = %+v, want %d aborts, 1 repositioning, no false cycles", st, stormRings)
		}
		least[0] = min(least[0], n)
		s.drain(t)
		for i := 1; i < len(whens); i++ {
			st, n := detectAllocs(s.m)
			if st.CyclesSearched != 0 {
				t.Fatalf("%s activation = %+v, want no cycles", whens[i], st)
			}
			least[i] = min(least[i], n)
		}
	}
	for i, n := range least {
		if n != 0 {
			t.Errorf("%s activation allocates %v times, want 0", whens[i], n)
		}
	}
}

// TestJournaledCyclesMatchTheirActivation holds the detector's
// ownership contract to what the manager does with a Result: its Cycle
// slices live in arenas the next Run reuses, so the activation must
// journal them before it returns. Two successive activations resolve
// different cycle sets — four X-rings, then four fresh rings and a
// TDR-2 tableau — and each activation's KindCycleEdge records must be
// exactly its own cycles' edges, once each. Storage reused too early,
// by the next activation or by a later cycle of the same one, would
// show up here as foreign or repeated edges.
func TestJournaledCyclesMatchTheirActivation(t *testing.T) {
	s := newRingStorm(t, 8, 1)
	defer s.close()
	type edge struct {
		from, to int64
		res      string
		mode     Mode
	}
	type activation struct {
		edges       map[edge]int
		victims     int
		repositions int
	}
	want := map[int]*activation{}
	for round := 1; round <= 2; round++ {
		s.tableau = round == 2
		s.arm(t)
		a := &activation{edges: map[edge]int{}, victims: stormRings}
		for i, tx := range s.txns {
			ring, j := i/4, i%4
			holder := s.txns[ring*4+(j+1)%4] // holds what tx waits for
			a.edges[edge{int64(holder.ID()), int64(tx.ID()), string(s.ringName(ring, j+1)), NL}] = 1
		}
		if s.tableau {
			t1, t2, t3 := int64(s.tab[0].ID()), int64(s.tab[1].ID()), int64(s.tab[2].ID())
			q, h := string(s.tabName("q")), string(s.tabName("h"))
			a.edges[edge{t1, t2, q, NL}] = 1 // T2's X conflicts with T1's IS
			a.edges[edge{t2, t3, q, X}] = 1  // T3 queued right behind T2
			a.edges[edge{t3, t1, h, NL}] = 1 // T1's S waits for T3's X
			a.repositions = 1
		}
		if st := s.m.Detect(); st.Aborted != a.victims || st.Repositioned != a.repositions {
			t.Fatalf("round %d: activation = %+v", round, st)
		}
		want[s.m.MetricsSnapshot().Detector.Runs] = a
		s.drain(t)
	}

	recs := s.m.Journal().Control().Snapshot(nil)
	got := map[int]*activation{}
	at := func(seq uint32) *activation {
		if got[int(seq)] == nil {
			got[int(seq)] = &activation{edges: map[edge]int{}}
		}
		return got[int(seq)]
	}
	for _, r := range recs {
		if r.Kind == journal.KindCycleEdge {
			at(r.Aux).edges[edge{r.Txn, int64(r.Arg), r.Resource(), Mode(r.Mode)}]++
		}
	}
	res, incomplete := jview.Resolutions(recs)
	if incomplete != 0 {
		t.Fatalf("%d resolution groups did not close", incomplete)
	}
	for _, r := range res {
		switch a := at(uint32(r.Activation)); r.Kind {
		case "victim":
			a.victims++
		case "reposition":
			a.repositions++
		}
	}
	if len(got) != len(want) {
		t.Fatalf("journal names activations %v, want %d", slices.Sorted(maps.Keys(got)), len(want))
	}
	for seq, w := range want {
		g := got[seq]
		if g == nil {
			t.Fatalf("activation %d journaled nothing", seq)
		}
		if g.victims != w.victims || g.repositions != w.repositions {
			t.Errorf("activation %d: journal resolves %d victims and %d repositions, want %d and %d", seq, g.victims, g.repositions, w.victims, w.repositions)
		}
		for e, n := range g.edges {
			if w.edges[e] != n {
				t.Errorf("activation %d journaled edge %+v %d times, want %d", seq, e, n, w.edges[e])
			}
		}
		for e := range w.edges {
			if g.edges[e] == 0 {
				t.Errorf("activation %d did not journal edge %+v", seq, e)
			}
		}
	}
}
