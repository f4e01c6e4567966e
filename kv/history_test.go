package kv

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"
)

func TestHistoryRecordsFootprints(t *testing.T) {
	h := NewHistory()
	s := Open(Options{DetectEvery: time.Millisecond, History: h})
	defer s.Close()
	ctx := context.Background()
	if err := s.Update(ctx, func(tx *Tx) error { return tx.Put(ctx, "a", "1") }); err != nil {
		t.Fatal(err)
	}
	if err := s.Update(ctx, func(tx *Tx) error {
		v, _, err := tx.Get(ctx, "a")
		if err != nil {
			return err
		}
		return tx.Put(ctx, "b", v+"!")
	}); err != nil {
		t.Fatal(err)
	}
	if h.Len() != 2 {
		t.Fatalf("history has %d entries", h.Len())
	}
	es := h.Entries()
	if es[1].Reads["a"] != "1" {
		t.Fatalf("entry 2 reads = %v", es[1].Reads)
	}
	if got := *es[1].Writes["b"]; got != "1!" {
		t.Fatalf("entry 2 writes = %v", got)
	}
	if err := h.CheckSerializable(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckSerializableDetectsViolations(t *testing.T) {
	h := NewHistory()
	h.record(nil, map[string]wval{"a": {v: "1"}})
	h.record(map[string]string{"a": "WRONG"}, nil)
	if err := h.CheckSerializable(); err == nil {
		t.Fatal("fabricated anomaly not detected")
	}
	// Deletes replay as absence.
	h2 := NewHistory()
	h2.record(nil, map[string]wval{"a": {v: "1"}})
	h2.record(nil, map[string]wval{"a": {del: true}})
	h2.record(map[string]string{"a": ""}, nil)
	if err := h2.CheckSerializable(); err != nil {
		t.Fatal(err)
	}
}

// TestSerializabilityUnderContention is the end-to-end audit: a
// deadlock-heavy concurrent workload whose every committed transaction
// must have read exactly the serial-order state (experiment-level proof
// that strict 2PL + the H/W-TWBG detector preserves serializability).
func TestSerializabilityUnderContention(t *testing.T) {
	h := NewHistory()
	s := Open(Options{DetectEvery: time.Millisecond, History: h})
	defer s.Close()
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 30; i++ {
				a := "k" + strconv.Itoa(rng.Intn(5))
				b := "k" + strconv.Itoa(rng.Intn(5))
				if err := s.Update(ctx, func(tx *Tx) error {
					va, _, err := tx.Get(ctx, a)
					if err != nil {
						return err
					}
					vb, _, err := tx.Get(ctx, b)
					if err != nil {
						return err
					}
					time.Sleep(100 * time.Microsecond)
					if err := tx.Put(ctx, a, vb+"|"); err != nil {
						return err
					}
					return tx.Put(ctx, b, va+"-")
				}); err != nil {
					t.Errorf("update: %v", err)
					return
				}
			}
		}(int64(g + 1))
	}
	wg.Wait()
	if h.Len() < 8*30 {
		t.Fatalf("history recorded %d commits, want %d", h.Len(), 8*30)
	}
	if err := h.CheckSerializable(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	t.Logf("serializable across %d commits with %d deadlock aborts (%+v)", h.Len(), st.Aborted, st)
	if st.Aborted == 0 {
		t.Log("note: no deadlocks formed on this run")
	}
}

func TestHistoryReadYourWritesNotRecordedAsReads(t *testing.T) {
	h := NewHistory()
	s := Open(Options{DetectEvery: time.Millisecond, History: h})
	defer s.Close()
	ctx := context.Background()
	if err := s.Update(ctx, func(tx *Tx) error {
		if err := tx.Put(ctx, "x", "mine"); err != nil {
			return err
		}
		v, _, err := tx.Get(ctx, "x") // served from the write buffer
		if err != nil {
			return err
		}
		if v != "mine" {
			return fmt.Errorf("read-your-writes broken: %q", v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	es := h.Entries()
	if len(es) != 1 {
		t.Fatalf("entries = %d", len(es))
	}
	if _, ok := es[0].Reads["x"]; ok {
		t.Fatal("own-buffer read recorded as an external read")
	}
	if err := h.CheckSerializable(); err != nil {
		t.Fatal(err)
	}
}
