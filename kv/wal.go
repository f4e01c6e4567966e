package kv

import (
	"fmt"
	"sort"
	"sync"
)

// The paper's very first sentence defines a transaction as "a sequence
// of database operations which is atomic with respect to the recovery".
// This file supplies that substrate for the kv store: a redo-only
// write-ahead log. All of a transaction's writes are logged before its
// commit record, and recovery replays only transactions whose commit
// record made it to the log — so a crash at ANY log prefix yields a
// state containing exactly the effects of the transactions committed in
// that prefix (atomicity + durability of the in-memory "disk").

// RecType is a WAL record type.
type RecType uint8

// WAL record types.
const (
	RecBegin RecType = iota
	RecWrite
	RecDelete
	RecCommit
)

// String names the record type.
func (t RecType) String() string {
	switch t {
	case RecBegin:
		return "begin"
	case RecWrite:
		return "write"
	case RecDelete:
		return "delete"
	case RecCommit:
		return "commit"
	}
	return fmt.Sprintf("RecType(%d)", uint8(t))
}

// Record is one WAL entry.
type Record struct {
	LSN  int64 // log sequence number, 1-based
	Type RecType
	Txn  int64 // commit sequence of the writing transaction
	Key  string
	Val  string // RecWrite only
}

// WAL is an append-only redo log. It stands in for stable storage: the
// in-memory record slice is the "disk". It is safe for concurrent use.
type WAL struct {
	mu   sync.Mutex
	recs []Record
	next int64 // next LSN
	txns int64 // commit sequence counter
}

// NewWAL returns an empty log.
func NewWAL() *WAL { return &WAL{next: 1} }

// Len returns the number of records on the log.
func (w *WAL) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.recs)
}

// Records returns a stable-storage copy of the whole log.
func (w *WAL) Records() []Record {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]Record(nil), w.recs...)
}

// logCommit atomically appends begin + one record per buffered write +
// commit. Callers serialize on the store's data mutex, which is held
// across the lock-level commit, the log append and the data apply — so
// log order equals apply order equals the serialization order of
// conflicting transactions.
func (w *WAL) logCommit(writes map[string]wval) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.txns++
	txn := w.txns
	app := func(t RecType, k, v string) {
		w.recs = append(w.recs, Record{LSN: w.next, Type: t, Txn: txn, Key: k, Val: v})
		w.next++
	}
	app(RecBegin, "", "")
	// Log the write set in key order: the map's iteration order must not
	// leak into the record sequence, or identical runs would produce
	// different logs (and Records diffs in tests would be meaningless).
	keys := make([]string, 0, len(writes))
	for k := range writes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if val := writes[k]; val.del {
			app(RecDelete, k, "")
		} else {
			app(RecWrite, k, val.v)
		}
	}
	app(RecCommit, "", "")
}

// Replay folds a log prefix into the state it describes: the effects of
// every transaction whose commit record is inside the prefix, in log
// order; writes of uncommitted (crashed) transactions are ignored.
func Replay(recs []Record) map[string]string {
	committed := make(map[int64]bool)
	for _, r := range recs {
		if r.Type == RecCommit {
			committed[r.Txn] = true
		}
	}
	state := make(map[string]string)
	for _, r := range recs {
		if !committed[r.Txn] {
			continue
		}
		switch r.Type {
		case RecWrite:
			state[r.Key] = r.Val
		case RecDelete:
			delete(state, r.Key)
		}
	}
	return state
}

// Recover builds a fresh store whose contents are the replay of the
// given log records, using the provided options for the new store's
// detector. The log itself carries over so the recovered store keeps
// appending to the same history.
func Recover(w *WAL, opts Options) *Store {
	s := Open(opts)
	s.wal = w
	s.mu.Lock()
	s.data = Replay(w.Records())
	s.mu.Unlock()
	return s
}
