package hwtwbg

import (
	"context"
	"errors"
	"math/rand"
	"time"
)

// ErrTooManyRetries is returned by Do when fn keeps being chosen as a
// deadlock victim.
var ErrTooManyRetries = errors.New("hwtwbg: transaction exceeded retry budget")

// DoOptions tunes Manager.Do.
type DoOptions struct {
	// MaxRetries bounds how many times a victimized transaction is
	// retried (default 100).
	MaxRetries int
	// MaxBackoff caps the jittered backoff between retries (default
	// 50ms).
	MaxBackoff time.Duration
}

// Do runs fn inside a transaction, committing when fn returns nil and
// aborting when it returns an error. If the transaction is chosen as a
// deadlock victim — fn sees ErrAborted from a Lock, or the commit
// itself fails — the whole closure retries on a fresh transaction after
// a jittered backoff. fn may run multiple times and must keep its side
// effects inside the transaction.
//
// This is the recommended shape for deadlock-prone work: the retry
// discipline (fresh transaction + backoff) is what prevents the
// abort/retry livelocks that immediate re-execution invites.
func (m *Manager) Do(ctx context.Context, fn func(*Txn) error) error {
	return m.DoWith(ctx, DoOptions{}, fn)
}

// DoWith is Do with explicit retry tuning. The backoff's jitter is drawn
// on the abort branch only, from math/rand's top-level functions
// (auto-seeded, safe for concurrent use), so a call that is never
// aborted touches no random state.
func (m *Manager) DoWith(ctx context.Context, opts DoOptions, fn func(*Txn) error) error {
	if opts.MaxRetries == 0 {
		opts.MaxRetries = 100
	}
	if opts.MaxBackoff == 0 {
		opts.MaxBackoff = 50 * time.Millisecond
	}
	for attempt := 1; attempt <= opts.MaxRetries; attempt++ {
		t := m.Begin()
		err := fn(t)
		if err == nil {
			err = t.Commit()
			if err == nil {
				t.Recycle()
				return nil
			}
		} else {
			t.Abort()
		}
		t.Recycle() // no-op unless the transaction reached a terminal state
		if !errors.Is(err, ErrAborted) {
			return err
		}
		backoff := time.Duration(rand.Int63n(int64(attempt)*int64(500*time.Microsecond))) + 100*time.Microsecond
		if backoff > opts.MaxBackoff {
			backoff = opts.MaxBackoff
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
	}
	return ErrTooManyRetries
}
