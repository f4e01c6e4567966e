package hwtwbg

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDoCommitsOnSuccess(t *testing.T) {
	m := Open(Options{})
	defer m.Close()
	var ran int
	err := m.Do(context.Background(), func(tx *Txn) error {
		ran++
		return tx.Lock(context.Background(), "r", X)
	})
	if err != nil || ran != 1 {
		t.Fatalf("err=%v ran=%d", err, ran)
	}
	// The lock was released by the commit.
	tx := m.Begin()
	if ok, _ := tx.TryLock("r", X); !ok {
		t.Fatal("lock not released")
	}
	tx.Abort()
}

func TestDoPropagatesUserError(t *testing.T) {
	m := Open(Options{})
	defer m.Close()
	sentinel := errors.New("boom")
	err := m.Do(context.Background(), func(tx *Txn) error {
		if err := tx.Lock(context.Background(), "r", X); err != nil {
			return err
		}
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	// The transaction was aborted: lock free.
	tx := m.Begin()
	if ok, _ := tx.TryLock("r", X); !ok {
		t.Fatal("lock not released after user error")
	}
	tx.Abort()
}

func TestDoRetriesVictims(t *testing.T) {
	m := Open(Options{Period: time.Millisecond})
	defer m.Close()
	const workers = 8
	var wg sync.WaitGroup
	var commits atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				a := ResourceID(fmt.Sprintf("r%d", (n+i)%4))
				b := ResourceID(fmt.Sprintf("r%d", (n+i+1)%4))
				err := m.Do(context.Background(), func(tx *Txn) error {
					if err := tx.Lock(context.Background(), a, X); err != nil {
						return err
					}
					return tx.Lock(context.Background(), b, X)
				})
				if err != nil {
					t.Errorf("Do: %v", err)
					return
				}
				commits.Add(1)
			}
		}(w)
	}
	wg.Wait()
	if commits.Load() != workers*20 {
		t.Fatalf("commits = %d", commits.Load())
	}
}

func TestDoRetryBudget(t *testing.T) {
	m := Open(Options{})
	defer m.Close()
	attempts := 0
	err := m.DoWith(context.Background(), DoOptions{MaxRetries: 3, MaxBackoff: time.Millisecond},
		func(tx *Txn) error {
			attempts++
			return ErrAborted
		})
	if !errors.Is(err, ErrTooManyRetries) || attempts != 3 {
		t.Fatalf("err=%v attempts=%d", err, attempts)
	}
}

func TestDoContextCancelBetweenRetries(t *testing.T) {
	m := Open(Options{})
	defer m.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := m.Do(ctx, func(tx *Txn) error { return ErrAborted })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

// TestDoUncontendedAllocs pins that Do adds nothing to what its
// transaction costs by hand (measured: 0 and 0 once the handle pool and
// the resource are warm). Before the jitter moved to the abort branch
// every call seeded a fresh rand.Rand: 1 allocation, the 5.4 KB source.
func TestDoUncontendedAllocs(t *testing.T) {
	m := Open(Options{Period: time.Hour})
	defer m.Close()
	ctx := context.Background()
	byHand := testing.AllocsPerRun(200, func() {
		tx := m.Begin()
		if err := tx.Lock(ctx, "r", X); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		tx.Recycle()
	})
	lockR := func(tx *Txn) error { return tx.Lock(ctx, "r", X) }
	viaDo := testing.AllocsPerRun(200, func() {
		if err := m.Do(ctx, lockR); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs per transaction: by hand %v, through Do %v", byHand, viaDo)
	if viaDo > byHand {
		t.Fatalf("Do allocates %v per uncontended call, Begin+Lock+Commit by hand %v", viaDo, byHand)
	}
}
