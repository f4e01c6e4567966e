package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"hwtwbg"
	"hwtwbg/kv"
)

const (
	kvWorkers    = 2 // nproc on the host the bounds were taken on
	kvKeys       = 200_000
	kvTxns       = 768 // per worker per round
	kvSpin       = 320 // spin units per worker after every round
	kvPool       = 256 // rounds pre-generated per worker
	kvDraws      = 4   // keys drawn per transaction, duplicates merged
	kvZipfS      = 1.1
	kvWriteShare = 0.20 // transactions that write one or two of their keys
	kvPreload    = 1000 // keys per preloading transaction
)

// kvOp is one access of a transaction: a key and, for a write, the value.
type kvOp struct {
	key   uint32
	write bool
}

// kvTxn is a transaction's accesses in ascending key order, each key once
// and in its strongest mode, which makes the workload deadlock-free: with
// deadlocks allowed its throughput follows the detector's timer and the
// store's wall-clock-seeded retry back-off, not the code.
type kvTxn struct {
	ops    [kvDraws]kvOp
	n      uint8
	writes bool
}

// kvWrite is a worker's latest committed write of a key, in the driver's
// own log. seq is drawn while the writer still holds its X locks, so for any
// one key it orders writes as strict two-phase locking ordered them. The
// value is kvValue(worker, n). The log holds no pointers and one entry per
// key written, so it neither grows with the run nor costs the collector.
type kvWrite struct {
	seq uint64
	n   uint32
}

func kvValue(w int, n uint32) string { return fmt.Sprintf("w%d.%d", w, n) }

type kvInst struct {
	store   *kv.Store
	keys    []string
	scripts [][][]kvTxn // [worker][round][txn]
	seq     atomic.Uint64
	log     []map[uint32]kvWrite // per worker, by key
	issued  []int                // per worker, every phase
	spin    *spinRef
}

func setupKV(cfg config) (instance, error) {
	k := &kvInst{store: kv.Open(kv.Options{}), log: make([]map[uint32]kvWrite, kvWorkers), issued: make([]int, kvWorkers), spin: newSpinRef(kvWorkers)}
	nkeys := cfg.scaled(kvKeys, 2000)
	k.keys = make([]string, nkeys)
	for i := range k.keys {
		k.keys[i] = fmt.Sprintf("k%06d", i)
	}
	ctx := context.Background()
	for lo := 0; lo < nkeys; lo += kvPreload {
		hi := min(lo+kvPreload, nkeys)
		batch := make(map[string]string, hi-lo)
		for _, key := range k.keys[lo:hi] {
			batch[key] = "init"
		}
		if err := k.store.Update(ctx, func(tx *kv.Tx) error { return tx.PutAll(ctx, batch) }); err != nil {
			k.close()
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	for w := range k.log {
		k.log[w] = make(map[uint32]kvWrite)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := rand.NewZipf(rng, kvZipfS, 1, uint64(nkeys-1))
	k.scripts = make([][][]kvTxn, kvWorkers)
	for w := range k.scripts {
		k.scripts[w] = make([][]kvTxn, cfg.scaled(kvPool, 4))
		for r := range k.scripts[w] {
			txns := make([]kvTxn, kvTxns)
			for t := range txns {
				txns[t] = genKVTxn(rng, zipf)
			}
			k.scripts[w][r] = txns
		}
	}
	return k, nil
}

func genKVTxn(rng *rand.Rand, zipf *rand.Zipf) kvTxn {
	var drawn [kvDraws]kvOp
	for i := range drawn {
		drawn[i].key = uint32(zipf.Uint64())
	}
	if rng.Float64() < kvWriteShare {
		for n := 1 + rng.Intn(2); n > 0; n-- {
			drawn[rng.Intn(kvDraws)].write = true
		}
	}
	sort.Slice(drawn[:], func(i, j int) bool { return drawn[i].key < drawn[j].key })
	var tx kvTxn
	for _, op := range drawn {
		if tx.n > 0 && tx.ops[tx.n-1].key == op.key {
			tx.ops[tx.n-1].write = tx.ops[tx.n-1].write || op.write
			continue
		}
		tx.ops[tx.n] = op
		tx.n++
	}
	for _, op := range tx.ops[:tx.n] {
		tx.writes = tx.writes || op.write
	}
	return tx
}

func (k *kvInst) manager() *hwtwbg.Manager { return k.store.Manager() }
func (k *kvInst) workers() int             { return kvWorkers }
func (k *kvInst) dropInputs()              { k.scripts, k.log = nil, nil }
func (k *kvInst) close()                   { k.store.Close() }

func (k *kvInst) ref(w int, lat []int64) ([]int64, error) {
	return burst(kvSpin, lat, func() error { k.spin.unit(w); return nil })
}

func (k *kvInst) sizes() roundSizes {
	return roundSizes{Workers: kvWorkers, Txns: kvTxns, RefOps: kvSpin, Reference: "spin_unit", Pool: len(k.scripts[0])}
}

// work replays one round of worker w: a transaction at a time, closed loop,
// each Update call timed.
func (k *kvInst) work(w, script int, budget *atomic.Int64, tr *tracer, out *workOut) {
	ctx := context.Background()
	txns, sb := k.scripts[w][script], tr.buf(w)
	for t := 0; budget.Add(-1) >= 0; t = (t + 1) % len(txns) {
		txn := &txns[t]
		k.issued[w]++
		id := k.issued[w]*kvWorkers + w
		var val string
		if txn.writes {
			val = kvValue(w, uint32(k.issued[w]))
		}
		var seq uint64
		start := time.Now()
		root := sb.begin(spTxn, id)
		up := sb.begin(spKVUpdate, id)
		err := k.store.Update(ctx, func(tx *kv.Tx) error {
			for _, op := range txn.ops[:txn.n] {
				if op.write {
					sp := sb.begin(spKVPut, id)
					err := tx.Put(ctx, k.keys[op.key], val)
					sb.end(sp)
					if err != nil {
						return err
					}
					continue
				}
				sp := sb.begin(spKVGet, id)
				_, ok, err := tx.Get(ctx, k.keys[op.key])
				sb.end(sp)
				if err != nil {
					return err
				}
				if !ok {
					return fmt.Errorf("key %s missing", k.keys[op.key])
				}
			}
			if txn.writes {
				seq = k.seq.Add(1)
			}
			return nil
		})
		sb.end(up)
		sb.end(root)
		if err != nil {
			out.failed++
			continue
		}
		out.txns++
		out.lat = append(out.lat, int64(time.Since(start)))
		if seq != 0 {
			for _, op := range txn.ops[:txn.n] {
				if op.write {
					k.log[w][op.key] = kvWrite{seq: seq, n: uint32(k.issued[w])}
				}
			}
		}
	}
}

// verify lays every key's last committed write, in lock order, over the
// preloaded state and compares the result with a scan of the store.
func (k *kvInst) verify() []string {
	var bad []string
	if st := k.store.Stats(); st.Aborted != 0 {
		bad = append(bad, fmt.Sprintf("Stats.Aborted = %d, want 0 (the workload is deadlock-free)", st.Aborted))
	}
	want := make(map[string]string, len(k.keys))
	for _, key := range k.keys {
		want[key] = "init"
	}
	last := map[uint32]uint64{}
	for w, log := range k.log {
		for key, wr := range log {
			if wr.seq > last[key] {
				last[key], want[k.keys[key]] = wr.seq, kvValue(w, wr.n)
			}
		}
	}
	ctx := context.Background()
	var got []kv.KV
	err := k.store.View(ctx, func(tx *kv.Tx) (err error) {
		got, err = tx.Scan(ctx)
		return err
	})
	if err != nil {
		return append(bad, fmt.Sprintf("scan: %v", err))
	}
	if len(got) != len(want) {
		bad = append(bad, fmt.Sprintf("store has %d keys, replay has %d", len(got), len(want)))
	}
	diffs := 0
	for _, p := range got {
		if want[p.Key] != p.Value {
			if diffs++; diffs <= 3 {
				bad = append(bad, fmt.Sprintf("key %s = %q, replay says %q", p.Key, p.Value, want[p.Key]))
			}
		}
	}
	if diffs > 3 {
		bad = append(bad, fmt.Sprintf("... and %d more keys differ", diffs-3))
	}
	return bad
}
