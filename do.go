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

// maxBackoff caps the jittered backoff between DoWith's retries.
const maxBackoff = 50 * time.Millisecond

// DoOptions tunes Manager.Do.
type DoOptions struct {
	// MaxRetries bounds how many times a victimized transaction is
	// retried (default 100).
	MaxRetries int
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

// DoWith is Do with explicit retry tuning. The backoff grows with the
// attempt and is capped at 50ms. Its jitter is drawn on the abort branch
// only, from math/rand's top-level functions (auto-seeded, safe for
// concurrent use), so a call that is never aborted touches no random
// state.
//
// fn may commit its transaction itself, for a commit that must do more
// than Txn.Commit (kv's applies the buffered writes under its data
// mutex): when fn returns nil with the transaction committed, DoWith
// returns nil without committing again. A commit that fails inside fn
// is fn's error, and an ErrAborted one retries. An abort on a closed
// manager does not: DoWith returns ErrClosed at once.
func (m *Manager) DoWith(ctx context.Context, opts DoOptions, fn func(*Txn) error) error {
	if opts.MaxRetries == 0 {
		opts.MaxRetries = 100
	}
	for attempt := 1; attempt <= opts.MaxRetries; attempt++ {
		t := m.Begin()
		err := fn(t)
		if err != nil {
			t.Abort()
		} else if t.state != committedState {
			err = t.Commit()
		}
		t.Recycle() // no-op unless the transaction reached a terminal state
		if err == nil {
			return nil
		}
		if !errors.Is(err, ErrAborted) {
			return err
		}
		if m.closed.Load() {
			// Close condemned the transaction: no attempt can commit.
			return ErrClosed
		}
		backoff := time.Duration(rand.Int63n(int64(attempt)*int64(500*time.Microsecond))) + 100*time.Microsecond
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(min(backoff, maxBackoff)):
		}
	}
	return ErrTooManyRetries
}
