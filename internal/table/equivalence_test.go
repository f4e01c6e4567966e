package table_test

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"hwtwbg/internal/detect"
	"hwtwbg/internal/lock"
	"hwtwbg/internal/table"
	"hwtwbg/internal/twbg"
)

// tdr2Tableau plants the state TDR-2 exists for (Manager's
// TestManualDetectAndTDR2, hwbench's storm): T1 holds q1 in IS and T3
// holds q2 in X; T2 queues for X on q1, T3 queues behind it for S —
// compatible with q1's total mode — and T1 closes the cycle by queueing
// for S on q2. Moving T3 ahead of T2 resolves it with nobody aborted.
var tdr2Tableau = table.OpSeq{
	table.OpRequest(1, 0, 0), // T1 IS q1
	table.OpRequest(3, 1, 4), // T3 X  q2
	table.OpRequest(2, 0, 4), // T2 X  q1, blocks
	table.OpRequest(3, 0, 2), // T3 S  q1, queued behind T2
	table.OpRequest(1, 1, 2), // T1 S  q2, blocks
}

func randomOps(rng *rand.Rand, n int) table.OpSeq {
	s := make(table.OpSeq, n)
	for i := range s {
		s[i] = uint16(rng.Uint32())
	}
	return s
}

// activation is everything one detector run decides, in comparable
// form. Grants are sorted: a snapshot lists a victim's locks by resource
// id, a live table in acquisition order, and Abort releases them in list
// order — the same grants, discovered in a different order.
type activation struct {
	Edges        []twbg.Edge
	Resolutions  []detect.Resolution
	Repositioned []detect.Reposition
	Aborted      []table.TxnID
	Salvaged     []table.TxnID
	Granted      []table.Grant
}

func activate(src detect.Table, graph twbg.Source, held func(table.TxnID) int) activation {
	a := activation{Edges: twbg.Build(graph).Edges()}
	res := detect.New(src, detect.Config{Cost: func(id table.TxnID) float64 { return float64(held(id) + 1) }}).Run()
	a.Resolutions, a.Repositioned, a.Aborted, a.Salvaged = res.Resolutions, res.Repositioned, res.Aborted, res.Salvaged
	a.Granted = slices.Clone(res.Granted)
	slices.SortFunc(a.Granted, func(x, y table.Grant) int {
		return cmp.Or(cmp.Compare(x.Resource, y.Resource), cmp.Compare(x.Txn, y.Txn))
	})
	return a
}

// TestActiveCopyEquivalence is the table-level statement of what the
// snapshot may leave out (the paper's Section 5: the TST holds one
// vertex per blocked-or-blocking transaction, so the detector's input is
// O(n+e) in the graph, not in the lock table). Over 300 seeded random
// tables split across 1–4 shards — blocked conversions, queues and
// planted TDR-2 tableaux among them — the H/W-TWBG built from the
// snapshot's view has exactly the edges of the one built from a clone of
// the whole table, one activation over each makes the same decisions
// (cycle evidence, victims, TDR-2 junctions with their AV/ST, salvages),
// and Snapshot.HeldCount agrees with the sources for every graph vertex
// that waits — the only ones a detector prices — and is 0 for the rest.
//
// Each table then lives on for a second round: the first activation's
// surgery stays in the snapshot (as if validation had dropped every
// resolution), the sources take more operations, and an incremental
// round recopies only the shards that are not clean — mutated since, or
// rewritten by the surgery. The comparison must hold again, so a sub
// that surgery touched but the round reused would show.
func TestActiveCopyEquivalence(t *testing.T) {
	const tables = 300
	var withCycle, withTDR2, withConversion, skipped int
	for i := 0; i < tables; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		var ops table.OpSeq
		if i%4 == 0 {
			ops = append(ops, tdr2Tableau...)
		}
		ops = append(ops, randomOps(rng, 8+rng.Intn(120))...)
		n := 1 + i%4

		full := table.ReplaySharded(ops, 1)
		shards := table.ReplaySharded(ops, n)
		epochs := make([]uint64, n)
		snap := table.NewSnapshot()

		round := func(name string) {
			snap.BeginRound(n)
			var dirty []int
			for k, tb := range shards {
				if snap.ShardClean(k, epochs[k]) {
					skipped++
					continue
				}
				snap.CopyShard(tb, k, epochs[k])
				snap.FinishShard(k)
				dirty = append(dirty, k)
			}
			snap.MergeShards(dirty)
			if err := snap.ActiveTable().Validate(); err != nil {
				// A consistent multi-shard copy is a valid table.
				t.Fatalf("table %d %s: merged snapshot invalid: %v", i, name, err)
			}

			ref := full[0].Clone()
			want := activate(ref, ref, full[0].HeldCount)
			got := activate(snap.View(), snap.View(), snap.HeldCount)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("table %d %s (%d shards): activation over the snapshot differs from the whole table\n got: %+v\nwant: %+v\ntable:\n%s",
					i, name, n, got, want, full[0])
			}
			for _, e := range want.Edges {
				for _, v := range []table.TxnID{e.From, e.To} {
					if _, _, waits := snap.ActiveTable().WaitingOn(v); !waits {
						if n := snap.HeldCount(v); n != 0 {
							t.Fatalf("table %d %s: HeldCount(%v) = %d for a transaction that does not wait", i, name, v, n)
						}
						continue
					}
					sum := 0
					for _, tb := range shards {
						sum += tb.HeldCount(v)
					}
					if snap.HeldCount(v) != sum || sum != full[0].HeldCount(v) {
						t.Fatalf("table %d %s: HeldCount(%v): snapshot %d, shards %d, whole table %d",
							i, name, v, snap.HeldCount(v), sum, full[0].HeldCount(v))
					}
				}
			}
			if len(want.Resolutions) > 0 {
				withCycle++
			}
			if len(want.Repositioned) > 0 {
				withTDR2++
			}
			for _, r := range full[0].Resources() {
				if r.NumHolders() > 0 && r.HolderAt(0).Blocked != lock.NL {
					withConversion++
					break
				}
			}
		}

		round("first round")
		more := randomOps(rng, rng.Intn(12))
		table.ApplyOps(full, more, nil)
		table.ApplyOps(shards, more, func(k int) { epochs[k]++ })
		round("incremental round")
	}
	t.Logf("%d tables, 2 rounds each: %d rounds with a cycle, %d with a TDR-2 repositioning, %d with a blocked conversion; %d clean shards reused",
		tables, withCycle, withTDR2, withConversion, skipped)
	// The property must not hold vacuously.
	for name, n := range map[string]int{"cycles": withCycle, "TDR-2 repositionings": withTDR2, "blocked conversions": withConversion, "reused shards": skipped} {
		if n < 20 {
			t.Errorf("only %d rounds exercised %s, want at least 20", n, name)
		}
	}
}
