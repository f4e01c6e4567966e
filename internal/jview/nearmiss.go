package jview

import (
	"fmt"
	"io"
	"sort"

	"hwtwbg/internal/lock"
	"hwtwbg/journal"
)

// Predictive near-miss analysis (after van den Heuvel/Sulzmann/
// Thiemann, "Partial Orders for Precise and Efficient Dynamic Deadlock
// Prediction"): instead of only reporting the deadlocks that happened,
// reconstruct each transaction's lock-acquisition partial order from
// the trace and look for cross-transaction reversals — T1 acquired a
// before b while T2 acquired b before a, with conflicting modes on
// both resources. Under strict two-phase locking T1 holds a while
// requesting b (locks are kept to commit/abort), so a reversal is a
// potential deadlock that the observed schedule happened to dodge: a
// different interleaving of the same transactions could have crossed
// the two waits. Reversals are ranked by recurrence (how many
// conflicting transaction pairs exhibit them), and pairs whose
// resources also appear in resolved-cycle evidence are flagged
// Materialized — those are not near misses but deadlocks the detector
// actually broke.

// NearMissPair is one resource pair acquired in both orders by
// different transactions with conflicting modes.
type NearMissPair struct {
	// ResourceA/ResourceB are the display prefixes, ordered so that
	// ResourceA sorts before ResourceB; HashA/HashB are the stable
	// identities.
	ResourceA string `json:"resource_a"`
	ResourceB string `json:"resource_b"`
	HashA     uint64 `json:"hash_a"`
	HashB     uint64 `json:"hash_b"`
	// ABTxns/BATxns count distinct transactions that first acquired A
	// then B, respectively B then A.
	ABTxns int `json:"ab_txns"`
	BATxns int `json:"ba_txns"`
	// Pairs counts cross-order transaction pairs whose modes conflict on
	// both resources — the recurrence rank: each such pair is one
	// schedule away from a deadlock.
	Pairs int `json:"pairs"`
	// Materialized: both resources appear in resolved-cycle evidence
	// (KindCycleEdge records), so this order reversal did produce at
	// least one real deadlock in the trace.
	Materialized bool `json:"materialized"`
	// Tags lists the distinct application op tags (Txn.SetTag) of the
	// transactions that contributed an acquisition order to this pair,
	// ascending — the handle for finding the code paths that must agree
	// on a lock order to close the near miss.
	Tags []uint64 `json:"op_tags,omitempty"`
}

// NearMissReport is the outcome of the partial-order pass.
type NearMissReport struct {
	// TxnsAnalyzed counts transactions that acquired at least two
	// distinct resources (the only ones that can order locks).
	TxnsAnalyzed int `json:"txns_analyzed"`
	// OrderedPairs counts distinct (txn, resource-pair) acquisition
	// orders observed.
	OrderedPairs int `json:"ordered_pairs"`
	// Reversals lists the conflicting cross-order pairs, most recurrent
	// first.
	Reversals []NearMissPair `json:"reversals"`
}

// modeCombo buckets one acquisition direction's lock-mode combination:
// the modes a transaction ended up holding on the pair's lower- and
// higher-hashed resource.
type modeCombo struct{ a, b lock.Mode }

// nmTxn is one transaction's acquisition state during replay.
type nmTxn struct {
	order []uint64             // first-acquisition order of distinct resources
	mode  map[uint64]lock.Mode // strongest granted mode per resource
}

// NearMisses replays the records (snapshot order) into the
// partial-order near-miss report.
func NearMisses(recs []journal.Record) NearMissReport {
	var rep NearMissReport
	txns := map[int64]*nmTxn{}
	names := map[uint64]string{}
	// pairDir[{lo,hi}] holds both directions' mode-combination counts;
	// dir key true = lo-then-hi.
	type pairKey struct{ lo, hi uint64 }
	type dirCounts struct {
		loHi, hiLo map[modeCombo]int
		loHiTxns   int
		hiLoTxns   int
		tags       map[uint64]bool // op tags of contributing transactions
	}
	pairs := map[pairKey]*dirCounts{}
	cycleRes := map[uint64]bool{} // resources named in resolved-cycle evidence
	txnTags := map[int64]uint64{} // txn -> op tag (KindOpTag)

	for i := range recs {
		r := &recs[i]
		switch r.Kind {
		case journal.KindGrant:
			if r.Txn == 0 || r.RHash == 0 {
				continue
			}
			if _, ok := names[r.RHash]; !ok {
				names[r.RHash] = r.Resource()
			}
			t := txns[r.Txn]
			if t == nil {
				t = &nmTxn{mode: map[uint64]lock.Mode{}}
				txns[r.Txn] = t
			}
			m := lock.Mode(r.Mode)
			if prev, held := t.mode[r.RHash]; held {
				// A conversion strengthens the held mode; acquisition order
				// is fixed by the first grant.
				t.mode[r.RHash] = lock.Conv(prev, m)
				continue
			}
			t.mode[r.RHash] = m
			t.order = append(t.order, r.RHash)
		case journal.KindCommit, journal.KindAbort:
			// Strict 2PL: every lock is held to the transaction end, so the
			// partial order closes here. Record each ordered pair once per
			// transaction, then drop the state (the id never recurs —
			// manager ids are unique — but re-use stays harmless: a fresh
			// state simply restarts the order).
			t := txns[r.Txn]
			if t == nil {
				continue
			}
			if len(t.order) >= 2 {
				rep.TxnsAnalyzed++
				for i := 0; i < len(t.order); i++ {
					for j := i + 1; j < len(t.order); j++ {
						first, second := t.order[i], t.order[j]
						rep.OrderedPairs++
						lo, hi := first, second
						loFirst := true
						if hi < lo {
							lo, hi = hi, lo
							loFirst = false
						}
						dc := pairs[pairKey{lo, hi}]
						if dc == nil {
							dc = &dirCounts{loHi: map[modeCombo]int{}, hiLo: map[modeCombo]int{}}
							pairs[pairKey{lo, hi}] = dc
						}
						if loFirst {
							dc.loHi[modeCombo{t.mode[lo], t.mode[hi]}]++
							dc.loHiTxns++
						} else {
							dc.hiLo[modeCombo{t.mode[lo], t.mode[hi]}]++
							dc.hiLoTxns++
						}
						if tag := txnTags[r.Txn]; tag != 0 {
							if dc.tags == nil {
								dc.tags = map[uint64]bool{}
							}
							dc.tags[tag] = true
						}
					}
				}
			}
			delete(txns, r.Txn)
			delete(txnTags, r.Txn)
		case journal.KindCycleEdge:
			if r.RHash != 0 {
				cycleRes[r.RHash] = true
			}
		case journal.KindOpTag:
			if r.Arg != 0 {
				txnTags[r.Txn] = r.Arg
			}
		}
	}

	for k, dc := range pairs {
		if dc.loHiTxns == 0 || dc.hiLoTxns == 0 {
			continue
		}
		// A cross pair (T1 lo-then-hi, T2 hi-then-lo) can deadlock iff
		// T1's mode conflicts with T2's on both resources: T1 holds lo
		// while waiting for hi, T2 the reverse.
		conflicts := 0
		for c1, n1 := range dc.loHi {
			for c2, n2 := range dc.hiLo {
				if !lock.Comp(c1.a, c2.a) && !lock.Comp(c1.b, c2.b) {
					conflicts += n1 * n2
				}
			}
		}
		if conflicts == 0 {
			continue
		}
		p := NearMissPair{
			ResourceA: names[k.lo], ResourceB: names[k.hi],
			HashA: k.lo, HashB: k.hi,
			ABTxns: dc.loHiTxns, BATxns: dc.hiLoTxns,
			Pairs:        conflicts,
			Materialized: cycleRes[k.lo] && cycleRes[k.hi],
		}
		for tag := range dc.tags {
			p.Tags = append(p.Tags, tag)
		}
		sort.Slice(p.Tags, func(i, j int) bool { return p.Tags[i] < p.Tags[j] })
		rep.Reversals = append(rep.Reversals, p)
	}
	sort.Slice(rep.Reversals, func(i, j int) bool {
		a, b := rep.Reversals[i], rep.Reversals[j]
		if a.Pairs != b.Pairs {
			return a.Pairs > b.Pairs
		}
		if a.HashA != b.HashA {
			return a.HashA < b.HashA
		}
		return a.HashB < b.HashB
	})
	return rep
}

// WriteReport renders the near-miss analysis as text for terminals.
func (rep NearMissReport) WriteReport(w io.Writer) {
	fmt.Fprintf(w, "near-miss analysis: %d multi-lock transactions, %d ordered pairs, %d conflicting reversals\n",
		rep.TxnsAnalyzed, rep.OrderedPairs, len(rep.Reversals))
	top := rep.Reversals
	if len(top) > 20 {
		top = top[:20]
	}
	for i, p := range top {
		tag := "NEAR MISS"
		if p.Materialized {
			tag = "materialized"
		}
		tags := ""
		if len(p.Tags) > 0 {
			tags = fmt.Sprintf("  op_tags=%v", p.Tags)
		}
		fmt.Fprintf(w, "  %2d. %s <-> %s  a->b txns=%d b->a txns=%d conflicting pairs=%d  [%s]%s\n",
			i+1, p.ResourceA, p.ResourceB, p.ABTxns, p.BATxns, p.Pairs, tag, tags)
	}
}
