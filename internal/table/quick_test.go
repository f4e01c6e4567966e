package table

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"hwtwbg/internal/lock"
)

// opSeq is a random operation sequence for testing/quick: each element
// encodes one table operation.
type opSeq []uint16

// Generate implements quick.Generator.
func (opSeq) Generate(r *rand.Rand, size int) reflect.Value {
	n := r.Intn(size*4 + 8)
	s := make(opSeq, n)
	for i := range s {
		s[i] = uint16(r.Uint32())
	}
	return reflect.ValueOf(s)
}

// Decoding of one opSeq element, shared by every replay.
var (
	replayModes     = []lock.Mode{lock.IS, lock.IX, lock.S, lock.SIX, lock.X}
	replayResources = []ResourceID{"q1", "q2", "q3"}
)

// opRequest encodes the element that makes txn (1..8) request resource
// res (an index into replayResources) in mode (an index into
// replayModes), for tests that plant a known state in front of a random
// sequence.
func opRequest(txn, res, mode int) uint16 {
	hi := mode << 2
	for hi%3 != res { // four consecutive values cover every residue
		hi++
	}
	return uint16(hi<<6 | (txn - 1))
}

// replay drives a fresh table with the sequence and returns it.
func replay(s opSeq) *Table { return replaySharded(s, 1)[0] }

// replaySharded drives n fresh tables as the shards of one lock manager:
// resource k lives in table k%n, a transaction blocked in one shard
// issues nothing in any, a request carries the transaction's locks in
// every shard as its stamp, and a commit or abort reaches every shard.
// The tables together hold exactly what the single table of n = 1 holds.
func replaySharded(s opSeq, n int) []*Table {
	tbs := make([]*Table, n)
	for i := range tbs {
		tbs[i] = New()
	}
	applyOps(tbs, s, nil)
	return tbs
}

// applyOps continues the replay on existing shard tables, reporting each
// shard an operation reaches to touched (if non-nil).
func applyOps(tbs []*Table, s opSeq, touched func(shard int)) {
	blocked := func(txn TxnID) bool {
		for _, tb := range tbs {
			if tb.Blocked(txn) {
				return true
			}
		}
		return false
	}
	all := func(f func(*Table)) {
		for i, tb := range tbs {
			f(tb)
			if touched != nil {
				touched(i)
			}
		}
	}
	for _, code := range s {
		txn := TxnID(code&0x07 + 1)
		switch (code >> 3) % 8 {
		case 6:
			if !blocked(txn) {
				all(func(tb *Table) { tb.Release(txn) })
			}
		case 7:
			all(func(tb *Table) { tb.Abort(txn) })
		default:
			if blocked(txn) {
				continue
			}
			k := int(code>>6) % len(replayResources)
			held := 0
			for _, tb := range tbs {
				held += tb.HeldCount(txn)
			}
			tbs[k%len(tbs)].RequestHeld(txn, replayResources[k], replayModes[int(code>>8)%len(replayModes)], held)
			if touched != nil {
				touched(k % len(tbs))
			}
		}
	}
}

// TestQuickRepositionPreservesQueue: for any reachable state and any
// queued transaction j, RepositionAVST permutes exactly the prefix up
// to j — same multiset overall, AV then ST both in their original
// relative order, suffix untouched — and the AV/ST split matches the
// compatibility definition.
func TestQuickRepositionPreservesQueue(t *testing.T) {
	f := func(s opSeq, pick uint8) bool {
		tb := replay(s)
		// Find a resource with a non-empty queue.
		var r *Resource
		for _, res := range tb.Resources() {
			if len(res.Queue()) > 0 {
				r = res
				break
			}
		}
		if r == nil {
			return true // nothing to test on this sequence
		}
		before := r.Queue()
		j := before[int(pick)%len(before)].Txn
		av, st := tb.RepositionAVST(r.ID(), j, nil, nil)
		after := r.Queue()
		if tb.validateActive() != nil {
			return false
		}

		if len(after) != len(before) {
			return false
		}
		// The suffix beyond j's old position is untouched.
		idx := 0
		for i, q := range before {
			if q.Txn == j {
				idx = i
				break
			}
		}
		for i := idx + 1; i < len(before); i++ {
			if after[i] != before[i] {
				return false
			}
		}
		// The prefix is exactly AV then ST.
		if len(av)+len(st) != idx+1 {
			return false
		}
		for i, q := range av {
			if after[i] != q {
				return false
			}
		}
		for i, q := range st {
			if after[len(av)+i] != q {
				return false
			}
		}
		// Split correctness and original relative orders.
		ai, si := 0, 0
		for _, q := range before[:idx+1] {
			if lock.Comp(q.Blocked, r.TotalMode()) {
				if ai >= len(av) || av[ai] != q {
					return false
				}
				ai++
			} else {
				if si >= len(st) || st[si] != q {
					return false
				}
				si++
			}
		}
		return ai == len(av) && si == len(st)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestQuickCloneEquivalence: a clone renders identically and evolves
// identically under a common suffix of operations.
func TestQuickCloneEquivalence(t *testing.T) {
	f := func(s, suffix opSeq) bool {
		tb := replay(s)
		c := tb.Clone()
		if tb.String() != c.String() {
			return false
		}
		// Apply the same suffix to both.
		apply := func(target *Table) { applyOps([]*Table{target}, suffix, nil) }
		apply(tb)
		apply(c)
		return tb.String() == c.String() && tb.validateActive() == nil && c.validateActive() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickTotalModeNeverWeakens: within a single resource's lifetime
// between holder removals, tm only climbs the lattice as requests
// arrive (grants and blocks both fold in).
func TestQuickTotalModeNeverWeakens(t *testing.T) {
	f := func(codes []uint16) bool {
		tb := New()
		modes := []lock.Mode{lock.IS, lock.IX, lock.S, lock.SIX, lock.X}
		prev := lock.NL
		for _, code := range codes {
			txn := TxnID(code&0x0f + 1)
			if tb.Blocked(txn) {
				continue
			}
			m := modes[int(code>>4)%len(modes)]
			if _, err := tb.Request(txn, "R", m); err != nil {
				return false
			}
			r := tb.Resource("R")
			if r == nil {
				return false
			}
			tm := r.TotalMode()
			if !lock.Covers(tm, prev) {
				return false // tm must climb while no one leaves
			}
			prev = tm
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
