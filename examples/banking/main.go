// Banking: a concurrent funds-transfer workload over the public API.
// Many goroutines move money between random accounts using strict 2PL
// (S to read both balances, upgraded to X to write), which produces both
// ordering deadlocks and conversion deadlocks; the background detector
// resolves them, victims retry, and the invariant (total money is
// conserved) holds at the end.
//
//	go run ./examples/banking
package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"time"

	"hwtwbg"
)

const (
	accounts       = 8
	initialBalance = 1000
	workers        = 8
	transfersEach  = 50
	// holdTime widens the window between reading balances and upgrading
	// the locks, so concurrent transfers actually collide and deadlock.
	holdTime = 300 * time.Microsecond
)

type bank struct {
	mu      sync.Mutex
	balance [accounts]int
}

func (b *bank) read(i int) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.balance[i]
}

func (b *bank) move(from, to, amount int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.balance[from] -= amount
	b.balance[to] += amount
}

func (b *bank) total() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	sum := 0
	for _, v := range b.balance {
		sum += v
	}
	return sum
}

func acct(i int) hwtwbg.ResourceID {
	return hwtwbg.ResourceID(fmt.Sprintf("acct/%02d", i))
}

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run moves money between the accounts, reports to w, and returns an
// error when a transfer fails for any reason but a deadlock abort or
// when the total balance is not conserved. Each worker draws its
// transfers from its own seeded source.
func run(w io.Writer) error {
	lm := hwtwbg.Open(hwtwbg.Options{Period: 2 * time.Millisecond})
	defer lm.Close()

	var b bank
	for i := range b.balance {
		b.balance[i] = initialBalance
	}

	var retries, commits int64
	var firstErr error
	var statMu sync.Mutex

	transfer := func(rng *rand.Rand) error {
		from := rng.Intn(accounts)
		to := rng.Intn(accounts)
		for to == from {
			to = rng.Intn(accounts)
		}
		amount := 1 + rng.Intn(50)
		// Do backs off with jitter before each retry. Without that the
		// read-then-upgrade pattern can thrash: the retried transaction
		// re-takes its S locks immediately and recreates the same
		// conversion deadlock every period.
		attempts := 0
		err := lm.Do(context.Background(), func(t *hwtwbg.Txn) error {
			attempts++
			// Read both balances under S locks...
			if err := t.Lock(context.Background(), acct(from), hwtwbg.S); err != nil {
				return err
			}
			if err := t.Lock(context.Background(), acct(to), hwtwbg.S); err != nil {
				return err
			}
			if b.read(from) < amount {
				return nil // insufficient funds: empty transfer, still commits
			}
			time.Sleep(holdTime) // simulate work between read and write
			// ...then upgrade to X to write: lock conversions that
			// can deadlock against other upgraders.
			if err := t.Lock(context.Background(), acct(from), hwtwbg.X); err != nil {
				return err
			}
			if err := t.Lock(context.Background(), acct(to), hwtwbg.X); err != nil {
				return err
			}
			b.move(from, to, amount)
			return nil
		})
		statMu.Lock()
		defer statMu.Unlock()
		retries += int64(attempts - 1) // Do starts a new attempt only after a deadlock abort
		if err == nil {
			commits++
		}
		return err
	}

	fmt.Fprintf(w, "running %d workers x %d transfers over %d accounts...\n", workers, transfersEach, accounts)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for j := 0; j < transfersEach; j++ {
				if err := transfer(rng); err != nil {
					statMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					statMu.Unlock()
					return
				}
			}
		}(int64(i + 1))
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}

	st := lm.MetricsSnapshot().Detector
	fmt.Fprintf(w, "committed %d transfers with %d deadlock retries\n", commits, retries)
	fmt.Fprintf(w, "detector: %d runs, %d cycles, %d aborts, %d TDR-2 repositionings, %d salvaged\n",
		st.Runs, st.CyclesSearched, st.Aborted, st.Repositioned, st.Salvaged)
	got, want := b.total(), accounts*initialBalance
	if got != want {
		return fmt.Errorf("invariant violated: total = %d, want %d", got, want)
	}
	fmt.Fprintf(w, "invariant holds: total balance = %d\n", got)
	return nil
}
