// Package kv is a strict two-phase-locked, serializable, in-memory
// key-value store built on the hwtwbg lock manager — the "sequential
// transaction processing" system of the paper made concrete.
//
// Concurrency control is two-level multiple granularity locking:
// readers take IS on the store root and S on the key; writers take IX
// on the root and X on the key; full scans take S on the root, which
// also gives phantom protection (a scan blocks concurrent inserts and
// deletes, because every writer holds IX on the root). Deadlocks —
// including the classic read-then-upgrade conversion deadlock — are
// resolved by the store's background H/W-TWBG detector; victims surface
// as hwtwbg.ErrAborted, and the Update/View helpers restart them through
// the manager's one restart loop, hwtwbg.Manager.DoWith.
//
// A transaction asks the manager for the root only when the mode it
// needs adds to what it already holds there: k accesses are k+1 lock
// calls, plus one per IS→IX or IX→SIX conversion. A key's lock is named
// by the key itself, or by "kv:/"+key when the key begins with the
// root's name "kv:/": injective, never the root, allocation-free for any
// other key, and readable in hwtrace and /locktable.
//
// Writes are buffered in the transaction and applied atomically at
// Commit, so aborting is free and readers never observe dirty data.
package kv

import (
	"context"
	"sort"
	"sync"
	"time"

	"hwtwbg"
)

// root is the resource representing the whole store (the MGL root).
const root hwtwbg.ResourceID = "kv:/"

// keyResource names the lock of key; see the package comment. The
// prefix test is written out because strings.HasPrefix is not among the
// calls hwlint's allocation budgets (Get, lockWrite) can see through.
func keyResource(key string) hwtwbg.ResourceID {
	if len(key) >= len(root) && key[:len(root)] == string(root) {
		return root + hwtwbg.ResourceID(key) //hwlint:allow allocbudget -- runs only for keys that begin with kv:/, escaped so no key names the root
	}
	return hwtwbg.ResourceID(key)
}

// Options configures a Store.
type Options struct {
	// DetectEvery is the deadlock detection period (default 10ms).
	DetectEvery time.Duration
	// Shards is the lock manager's shard count, rounded up to a power
	// of two (0 derives it from GOMAXPROCS; see hwtwbg.Options.Shards).
	Shards int
	// MaxRetries bounds Update/View retries after deadlock
	// victimization (default 100; see hwtwbg.DoOptions.MaxRetries).
	MaxRetries int
	// JournalSize is the lock manager's flight-recorder capacity in
	// records per ring (0 = default, negative = disabled; see
	// hwtwbg.Options.JournalSize).
	JournalSize int
	// History, when non-nil, records every committed transaction's
	// read/write footprint for serializability auditing.
	History *History
}

// Store is a transactional key-value store. Create one with Open; all
// methods are safe for concurrent use.
type Store struct {
	lm   *hwtwbg.Manager
	opts Options

	mu   sync.RWMutex
	data map[string]string
}

// Open creates a store and starts its deadlock detector.
func Open(opts Options) *Store {
	if opts.DetectEvery == 0 {
		opts.DetectEvery = 10 * time.Millisecond
	}
	return &Store{
		lm: hwtwbg.Open(hwtwbg.Options{
			Period: opts.DetectEvery, Shards: opts.Shards, JournalSize: opts.JournalSize,
		}),
		opts: opts,
		data: make(map[string]string),
	}
}

// Close shuts the store down, aborting live transactions.
func (s *Store) Close() { s.lm.Close() }

// Stats returns the deadlock detector's cumulative statistics.
func (s *Store) Stats() hwtwbg.Stats { return s.lm.MetricsSnapshot().Detector }

// Manager exposes the underlying lock manager, for wiring the store
// into diagnostics (lockservice.DebugHandler) and reading its metrics
// (Manager().MetricsSnapshot()).
func (s *Store) Manager() *hwtwbg.Manager { return s.lm }

// Len returns the number of keys (unlocked, diagnostic).
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.data)
}

// Tx is one transaction. Use it from a single goroutine.
type Tx struct {
	s      *Store
	t      *hwtwbg.Txn
	root   hwtwbg.Mode       // strongest mode granted on the store root so far
	writes map[string]wval   // made by the first write
	reads  map[string]string // first-read values, for the history auditor
}

// wval is one buffered write: a value, or a deletion.
type wval struct {
	v   string
	del bool
}

// Begin starts a transaction. Prefer Update/View, which handle retry
// and commit.
func (s *Store) Begin() *Tx {
	return &Tx{s: s, t: s.lm.Begin()}
}

// txPool recycles the Tx structs of Update's transactions, with their
// write and read sets cleared but kept. Begin's never enter it: only
// Update owns a Tx's whole lifecycle.
var txPool sync.Pool

// wrap is a Tx from txPool around t, one attempt of Update's.
func (s *Store) wrap(t *hwtwbg.Txn) *Tx {
	tx, _ := txPool.Get().(*Tx)
	if tx == nil {
		tx = &Tx{}
	}
	tx.s, tx.t = s, t
	return tx
}

// recycle hands a finished Update transaction back to txPool. Its Txn
// is DoWith's to recycle.
func (tx *Tx) recycle() {
	clear(tx.writes)
	clear(tx.reads)
	*tx = Tx{writes: tx.writes, reads: tx.reads}
	txPool.Put(tx)
}

// lockRoot makes the transaction hold m on the store root, calling the
// manager only for a mode that adds to the one held (first use, IS→IX,
// IX→SIX, ...). The memo is advanced only by a granted request, so it
// never claims more than the manager holds; a covered request still
// fails on a finished transaction, as the elided call would have.
func (tx *Tx) lockRoot(ctx context.Context, m hwtwbg.Mode) error {
	want := hwtwbg.Conv(tx.root, m)
	if want == tx.root {
		return tx.t.Err()
	}
	if err := tx.t.Lock(ctx, root, m); err != nil {
		return err
	}
	tx.root = want
	return nil
}

// lockBatch is lockRoot plus keyMode on every key, in one LockAll batch
// that leaves the root out when it is already covered.
func (tx *Tx) lockBatch(ctx context.Context, m, keyMode hwtwbg.Mode, keys []string) error {
	reqs := make([]hwtwbg.LockRequest, 0, len(keys)+1)
	want := hwtwbg.Conv(tx.root, m)
	if want != tx.root {
		reqs = append(reqs, hwtwbg.LockRequest{Resource: root, Mode: m})
	}
	for _, k := range keys {
		reqs = append(reqs, hwtwbg.LockRequest{Resource: keyResource(k), Mode: keyMode})
	}
	if err := tx.t.LockAll(ctx, reqs); err != nil {
		return err
	}
	tx.root = want
	return nil
}

// buffer records a write in the write set.
func (tx *Tx) buffer(key string, w wval) {
	if tx.writes == nil {
		tx.writes = make(map[string]wval)
	}
	tx.writes[key] = w
}

// SetOpTag attaches an application-defined operation tag to the
// transaction (see hwtwbg.Txn.SetTag): postmortems and `hwtrace
// report` group wait chains by it.
func (tx *Tx) SetOpTag(tag uint64) { tx.t.SetTag(tag) }

// Get returns the value of key. The transaction sees its own buffered
// writes.
//
// The budgeted site is Txn.Lock's Resource first-touch literal.
//
//hwlint:hotpath allocs=1
func (tx *Tx) Get(ctx context.Context, key string) (string, bool, error) {
	if w, ok := tx.writes[key]; ok {
		return w.v, !w.del, nil
	}
	if err := tx.lockRoot(ctx, hwtwbg.IS); err != nil {
		return "", false, err
	}
	if err := tx.t.Lock(ctx, keyResource(key), hwtwbg.S); err != nil {
		return "", false, err
	}
	tx.s.mu.RLock()
	defer tx.s.mu.RUnlock()
	v, ok := tx.s.data[key]
	if tx.s.opts.History != nil {
		if tx.reads == nil {
			tx.reads = make(map[string]string) //hwlint:allow allocbudget -- auditing (Options.History) only
		}
		if _, seen := tx.reads[key]; !seen {
			tx.reads[key] = v // "" when absent
		}
	}
	return v, ok, nil
}

// GetAll returns the values of every key in keys, omitting absent ones.
// All key locks (plus IS on the root, unless already covered) are
// acquired in one LockAll batch — one shard-mutex round per shard
// instead of one per key — and the transaction sees its own buffered
// writes, exactly as Get does.
func (tx *Tx) GetAll(ctx context.Context, keys ...string) (map[string]string, error) {
	out := make(map[string]string, len(keys))
	need := make([]string, 0, len(keys))
	for _, k := range keys {
		if _, ok := tx.writes[k]; ok {
			continue // served from the write buffer; no lock needed
		}
		need = append(need, k)
	}
	// Sorted key order keeps the lock footprint deterministic for a
	// given key set (LockAll itself re-sorts by shard).
	sort.Strings(need)
	if err := tx.lockBatch(ctx, hwtwbg.IS, hwtwbg.S, need); err != nil {
		return nil, err
	}
	tx.s.mu.RLock()
	for _, k := range need {
		v, ok := tx.s.data[k]
		if tx.s.opts.History != nil {
			if tx.reads == nil {
				tx.reads = make(map[string]string)
			}
			if _, seen := tx.reads[k]; !seen {
				tx.reads[k] = v // "" when absent
			}
		}
		if ok {
			out[k] = v
		}
	}
	tx.s.mu.RUnlock()
	for _, k := range keys {
		if w, ok := tx.writes[k]; ok && !w.del {
			out[k] = w.v
		}
	}
	return out, nil
}

// PutAll buffers writes of every entry in kvs, acquiring all the write
// locks (IX on the root, unless already covered, plus X per key) in one
// LockAll batch.
func (tx *Tx) PutAll(ctx context.Context, kvs map[string]string) error {
	if len(kvs) == 0 {
		return nil
	}
	keys := make([]string, 0, len(kvs))
	for k := range kvs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if err := tx.lockBatch(ctx, hwtwbg.IX, hwtwbg.X, keys); err != nil {
		return err
	}
	for _, k := range keys {
		tx.buffer(k, wval{v: kvs[k]})
	}
	return nil
}

// Put buffers a write of key = value.
func (tx *Tx) Put(ctx context.Context, key, value string) error {
	if err := tx.lockWrite(ctx, key); err != nil {
		return err
	}
	tx.buffer(key, wval{v: value})
	return nil
}

// Delete buffers a deletion of key.
func (tx *Tx) Delete(ctx context.Context, key string) error {
	if err := tx.lockWrite(ctx, key); err != nil {
		return err
	}
	tx.buffer(key, wval{del: true})
	return nil
}

// lockWrite takes the locks of a Put or Delete; its budget is Txn.Lock's.
//
//hwlint:hotpath allocs=1
func (tx *Tx) lockWrite(ctx context.Context, key string) error {
	if err := tx.lockRoot(ctx, hwtwbg.IX); err != nil {
		return err
	}
	return tx.t.Lock(ctx, keyResource(key), hwtwbg.X)
}

// Scan returns every key-value pair in sorted key order, merged with
// the transaction's own writes. It takes S on the store root, so it is
// phantom-safe: no concurrent transaction can commit an insert or
// delete while the scanning transaction lives.
func (tx *Tx) Scan(ctx context.Context) ([]KV, error) {
	if err := tx.lockRoot(ctx, hwtwbg.S); err != nil {
		return nil, err
	}
	tx.s.mu.RLock()
	merged := make(map[string]string, len(tx.s.data))
	for k, v := range tx.s.data {
		merged[k] = v
	}
	tx.s.mu.RUnlock()
	for k, w := range tx.writes {
		if w.del {
			delete(merged, k)
		} else {
			merged[k] = w.v
		}
	}
	out := make([]KV, 0, len(merged))
	for k, v := range merged {
		out = append(out, KV{Key: k, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// KV is one key-value pair.
type KV struct {
	Key, Value string
}

// Commit applies the buffered writes atomically and releases all locks.
func (tx *Tx) Commit() error {
	// The data mutex is held across the lock-level commit: readers take
	// their locks first and the data mutex second (never nested the
	// other way), so a reader granted by our release blocks on s.mu
	// until the whole batch is applied — no half-applied state is ever
	// observable, and nothing is applied if the commit fails.
	tx.s.mu.Lock()
	defer tx.s.mu.Unlock()
	if err := tx.t.Commit(); err != nil {
		return err
	}
	if tx.s.opts.History != nil {
		tx.s.opts.History.record(tx.reads, tx.writes)
	}
	for k, w := range tx.writes {
		if w.del {
			delete(tx.s.data, k)
		} else {
			tx.s.data[k] = w.v
		}
	}
	return nil
}

// Abort drops the buffered writes and releases all locks.
func (tx *Tx) Abort() { tx.t.Abort() }

// Err reports the transaction's terminal error (nil while live).
func (tx *Tx) Err() error { return tx.t.Err() }

// Update runs fn inside a read-write transaction, one per attempt of
// hwtwbg.Manager.DoWith: it commits through Tx.Commit when fn returns
// nil, so a failed commit applies nothing, and reruns fn on a fresh
// transaction when it is chosen as a deadlock victim
// (hwtwbg.ErrTooManyRetries once MaxRetries runs out). fn must keep its
// side effects inside the transaction and must not retain tx after
// returning: the Tx is recycled for a later transaction.
func (s *Store) Update(ctx context.Context, fn func(tx *Tx) error) error {
	return s.lm.DoWith(ctx, hwtwbg.DoOptions{MaxRetries: s.opts.MaxRetries}, func(t *hwtwbg.Txn) error {
		tx := s.wrap(t)
		err := fn(tx)
		if err == nil {
			err = tx.Commit()
		}
		tx.recycle()
		return err
	})
}

// View is Update under another name: writes performed by fn are still
// applied (the name documents intent). As with Update, fn must not
// retain tx after returning.
func (s *Store) View(ctx context.Context, fn func(tx *Tx) error) error {
	return s.Update(ctx, fn)
}
