package kv

import (
	"fmt"
	"sync"
)

// History records, for every committed transaction, the values it read
// and the writes it installed, stamped with its commit sequence number.
// CheckSerializable then verifies the execution was serializable in
// commit order: each transaction must have read exactly the values left
// by the transactions committed before it. Strict two-phase locking
// guarantees this; the auditor turns the guarantee into a checkable
// artifact for tests and examples.
//
// Enable it with Options.History; the recording cost is one map copy
// per commit.
type History struct {
	mu      sync.Mutex
	entries []HistoryEntry
	seq     int64
}

// HistoryEntry is one committed transaction's footprint.
type HistoryEntry struct {
	Seq    int64              // commit order, 1-based
	Reads  map[string]string  // key -> value observed (first read)
	Writes map[string]*string // key -> value written (nil = delete)
}

// NewHistory returns an empty history recorder.
func NewHistory() *History { return &History{} }

// Len returns the number of committed transactions recorded.
func (h *History) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.entries)
}

// Entries returns a copy of the recorded footprints in commit order.
func (h *History) Entries() []HistoryEntry {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]HistoryEntry, len(h.entries))
	copy(out, h.entries)
	return out
}

// record appends one committed transaction, copying the sets it is
// handed (the transaction keeps them). Called under the store's data
// mutex, so commit order here equals apply order.
func (h *History) record(reads map[string]string, writes map[string]wval) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.seq++
	e := HistoryEntry{
		Seq:    h.seq,
		Reads:  make(map[string]string, len(reads)),
		Writes: make(map[string]*string, len(writes)),
	}
	for k, v := range reads {
		e.Reads[k] = v
	}
	for k, w := range writes {
		if w.del {
			e.Writes[k] = nil
		} else {
			v := w.v
			e.Writes[k] = &v
		}
	}
	h.entries = append(h.entries, e)
}

// CheckSerializable verifies the recorded execution is equivalent to
// the serial execution in commit order: replaying writes in sequence,
// every transaction's recorded reads must match the state at its
// position. It returns nil or an error naming the first violation.
func (h *History) CheckSerializable() error {
	state := make(map[string]string)
	for _, e := range h.Entries() {
		for k, saw := range e.Reads {
			cur, ok := state[k]
			if !ok {
				cur = "" // absent reads record ""
			}
			if saw != cur {
				return fmt.Errorf("kv: serializability violation: txn %d read %q=%q, serial state has %q",
					e.Seq, k, saw, cur)
			}
		}
		for k, v := range e.Writes {
			if v == nil {
				delete(state, k)
			} else {
				state[k] = *v
			}
		}
	}
	return nil
}
