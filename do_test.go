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

// TestDoCommitsOnSuccess: Do commits a closure that returns nil, and
// does not commit again one that committed its transaction itself, as
// kv's Update does.
func TestDoCommitsOnSuccess(t *testing.T) {
	m := Open(Options{})
	defer m.Close()
	for _, fnCommits := range []bool{false, true} {
		var ran int
		err := m.Do(context.Background(), func(tx *Txn) error {
			ran++
			if err := tx.Lock(context.Background(), "r", X); err != nil || !fnCommits {
				return err
			}
			return tx.Commit()
		})
		if err != nil || ran != 1 {
			t.Fatalf("fn commits %v: err=%v ran=%d", fnCommits, err, ran)
		}
		// The lock was released by the commit.
		tx := m.Begin()
		if ok, _ := tx.TryLock("r", X); !ok {
			t.Fatalf("fn commits %v: lock not released", fnCommits)
		}
		tx.Abort()
	}
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
	err := m.DoWith(context.Background(), DoOptions{MaxRetries: 3},
		func(tx *Txn) error {
			attempts++
			return ErrAborted
		})
	if !errors.Is(err, ErrTooManyRetries) || attempts != 3 {
		t.Fatalf("err=%v attempts=%d", err, attempts)
	}
}

// TestDoStopsOnClose: a transaction that Close condemns fails its
// commit with ErrAborted, and DoWith returns ErrClosed without running
// fn again.
func TestDoStopsOnClose(t *testing.T) {
	m := Open(Options{})
	attempts := 0
	err := m.Do(context.Background(), func(tx *Txn) error {
		attempts++
		if err := tx.Lock(context.Background(), "r", X); err != nil {
			return err
		}
		m.Close()
		return nil
	})
	if !errors.Is(err, ErrClosed) || attempts != 1 {
		t.Fatalf("err = %v after %d attempts, want ErrClosed after 1", err, attempts)
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
// transaction costs by hand, whether Do commits or the closure does
// (measured: 0, 0 and 0 once the handle pool and the resource are
// warm). Before the jitter moved to the abort branch
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
	lockRCommit := func(tx *Txn) error {
		if err := tx.Lock(ctx, "r", X); err != nil {
			return err
		}
		return tx.Commit()
	}
	for _, c := range []struct {
		name string
		fn   func(*Txn) error
	}{
		{"Do commits", lockR},
		{"fn commits", lockRCommit},
	} {
		viaDo := testing.AllocsPerRun(200, func() {
			if err := m.Do(ctx, c.fn); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("allocs per transaction: by hand %v, through Do (%s) %v", byHand, c.name, viaDo)
		if viaDo > byHand {
			t.Errorf("Do (%s) allocates %v per uncontended call, Begin+Lock+Commit by hand %v", c.name, viaDo, byHand)
		}
	}
}
