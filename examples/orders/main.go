// Orders: an order-processing workload over the transactional kv store.
// Concurrent workers reserve stock for multi-item orders (read-modify-
// write on several inventory keys per transaction, in arbitrary key
// order — guaranteed deadlock fodder), while an auditor repeatedly scans
// the whole store and checks the books balance. The store's H/W-TWBG
// detector resolves the deadlocks; the invariant
// (reserved + remaining == initial stock, per item) must hold at every
// audit and at the end.
//
//	go run ./examples/orders
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"time"

	"hwtwbg/kv"
)

const (
	items        = 6
	initialStock = 500
	workers      = 6
	ordersEach   = 40
)

func stockKey(i int) string    { return fmt.Sprintf("stock/%d", i) }
func reservedKey(i int) string { return fmt.Sprintf("reserved/%d", i) }

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run places the orders, audits the books while they are placed and
// once after, reports to w, and returns an error when an order fails or
// an audit finds the books unbalanced.
func run(w io.Writer) error {
	store := kv.Open(kv.Options{DetectEvery: 2 * time.Millisecond, MaxRetries: 5000})
	defer store.Close()
	ctx := context.Background()

	// Seed inventory.
	if err := store.Update(ctx, func(tx *kv.Tx) error {
		for i := 0; i < items; i++ {
			if err := tx.Put(ctx, stockKey(i), strconv.Itoa(initialStock)); err != nil {
				return err
			}
			if err := tx.Put(ctx, reservedKey(i), "0"); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	audit := func(tx *kv.Tx) error {
		for i := 0; i < items; i++ {
			s, _, err := tx.Get(ctx, stockKey(i))
			if err != nil {
				return err
			}
			r, _, err := tx.Get(ctx, reservedKey(i))
			if err != nil {
				return err
			}
			sn, _ := strconv.Atoi(s)
			rn, _ := strconv.Atoi(r)
			if sn+rn != initialStock {
				return fmt.Errorf("item %d: stock %d + reserved %d != %d", i, sn, rn, initialStock)
			}
		}
		return nil
	}

	var wg sync.WaitGroup
	placed := make([]int, workers)
	orderErrs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id + 1)))
			for o := 0; o < ordersEach; o++ {
				// An order reserves 1-3 units of 2-3 distinct items.
				n := 2 + rng.Intn(2)
				chosen := rng.Perm(items)[:n]
				if err := store.Update(ctx, func(tx *kv.Tx) error {
					for _, item := range chosen {
						qty := 1 + rng.Intn(3)
						s, _, err := tx.Get(ctx, stockKey(item))
						if err != nil {
							return err
						}
						// Simulate per-item work between the read and the
						// write so concurrent orders genuinely overlap.
						time.Sleep(200 * time.Microsecond)
						sn, _ := strconv.Atoi(s)
						if sn < qty {
							return nil // out of stock: empty commit
						}
						r, _, err := tx.Get(ctx, reservedKey(item))
						if err != nil {
							return err
						}
						rn, _ := strconv.Atoi(r)
						if err := tx.Put(ctx, stockKey(item), strconv.Itoa(sn-qty)); err != nil {
							return err
						}
						if err := tx.Put(ctx, reservedKey(item), strconv.Itoa(rn+qty)); err != nil {
							return err
						}
					}
					return nil
				}); err != nil {
					orderErrs[id] = fmt.Errorf("worker %d: %w", id, err)
					return
				}
				placed[id]++
			}
		}(i)
	}

	// The auditor runs concurrently with the order traffic.
	auditErrs := make(chan error, 1)
	stopAudit := make(chan struct{})
	go func() {
		for {
			select {
			case <-stopAudit:
				auditErrs <- nil
				return
			case <-time.After(5 * time.Millisecond):
				// Audit periodically, not in a hot loop: a full-store
				// audit takes S on the MGL root, which serializes
				// against every writer's IX.
			}
			if err := store.View(ctx, audit); err != nil {
				auditErrs <- err
				return
			}
		}
	}()

	wg.Wait()
	close(stopAudit)
	if err := <-auditErrs; err != nil {
		return fmt.Errorf("audit failed: %w", err)
	}
	if err := errors.Join(orderErrs...); err != nil {
		return err
	}
	if err := store.View(ctx, audit); err != nil {
		return fmt.Errorf("final audit failed: %w", err)
	}
	total := 0
	for _, p := range placed {
		total += p
	}
	st := store.Stats()
	fmt.Fprintf(w, "placed %d orders across %d workers; every audit balanced\n", total, workers)
	fmt.Fprintf(w, "detector: %d runs, %d cycles, %d aborts, %d TDR-2 repositionings, %d salvaged\n",
		st.Runs, st.CyclesSearched, st.Aborted, st.Repositioned, st.Salvaged)
	return nil
}
