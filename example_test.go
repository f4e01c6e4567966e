package hwtwbg_test

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"time"

	"hwtwbg"
	"hwtwbg/journal"
)

// ExampleManager shows the basic begin-lock-commit flow.
func ExampleManager() {
	lm := hwtwbg.Open(hwtwbg.Options{}) // no background detector: Detect manually
	defer lm.Close()

	t := lm.Begin()
	if err := t.Lock(context.Background(), "table/users", hwtwbg.IX); err != nil {
		panic(err)
	}
	if err := t.Lock(context.Background(), "row/42", hwtwbg.X); err != nil {
		panic(err)
	}
	fmt.Println(lm.Snapshot())
	if err := t.Commit(); err != nil {
		panic(err)
	}
	// Output:
	// row/42(X): Holder((T1, X, NL)) Queue()
	// table/users(IX): Holder((T1, IX, NL)) Queue()
}

// ExampleManager_Detect resolves a deadlock manually and shows that one
// transaction was sacrificed.
func ExampleManager_Detect() {
	lm := hwtwbg.Open(hwtwbg.Options{})
	defer lm.Close()
	ctx := context.Background()

	t1, t2 := lm.Begin(), lm.Begin()
	t1.Lock(ctx, "A", hwtwbg.X)
	t2.Lock(ctx, "B", hwtwbg.X)

	done := make(chan error, 2)
	go func() { done <- t1.Lock(ctx, "B", hwtwbg.X) }()
	go func() { done <- t2.Lock(ctx, "A", hwtwbg.X) }()
	for lm.Blocked(t1.ID()) == false || lm.Blocked(t2.ID()) == false {
		time.Sleep(time.Millisecond)
	}

	st := lm.Detect()
	fmt.Printf("aborted %d transaction(s)\n", st.Aborted)
	e1, e2 := <-done, <-done
	fmt.Println("one ErrAborted:", errors.Is(e1, hwtwbg.ErrAborted) != errors.Is(e2, hwtwbg.ErrAborted))
	// Output:
	// aborted 1 transaction(s)
	// one ErrAborted: true
}

// ExampleTxn_TryLock probes a lock without risking a wait.
func ExampleTxn_TryLock() {
	lm := hwtwbg.Open(hwtwbg.Options{})
	defer lm.Close()

	a, b := lm.Begin(), lm.Begin()
	a.Lock(context.Background(), "r", hwtwbg.X)
	ok, _ := b.TryLock("r", hwtwbg.S)
	fmt.Println("granted:", ok)
	// Output:
	// granted: false
}

// dropTime keeps the example's log output stable.
func dropTime(_ []string, a slog.Attr) slog.Attr {
	if a.Key == slog.TimeKey {
		return slog.Attr{}
	}
	return a
}

// ExampleManager_Journal tails the flight recorder in-process: one
// cursor per ring, drained into slog, blocks and waited grants only.
func ExampleManager_Journal() {
	lm := hwtwbg.Open(hwtwbg.Options{Shards: 1})
	defer lm.Close()
	ctx := context.Background()
	a, b := lm.Begin(), lm.Begin()
	a.Lock(ctx, "r", hwtwbg.X)
	done := make(chan error)
	go func() { done <- b.Lock(ctx, "r", hwtwbg.S) }()
	for !lm.Blocked(b.ID()) {
		time.Sleep(time.Millisecond)
	}
	a.Commit()
	<-done
	log := slog.New(slog.NewTextHandler(os.Stdout, &slog.HandlerOptions{ReplaceAttr: dropTime}))
	jr := lm.Journal()
	cursors := make([]uint64, jr.NumRings()) // kept across drains: each resumes where the last stopped
	var buf []journal.Record
	for i := range cursors {
		buf, cursors[i], _ = jr.Ring(i).ReadFrom(cursors[i], 0, buf[:0])
		for _, rec := range buf {
			if rec.Kind == journal.KindBlock || rec.Kind == journal.KindGrant && rec.Arg > 0 {
				log.Info(rec.Kind.String(), "txn", rec.Txn, "resource", rec.Resource(), "mode", rec.ModeString())
			}
		}
	}
	// Output:
	// level=INFO msg=block txn=2 resource=r mode=S
	// level=INFO msg=grant txn=2 resource=r mode=S
}

// ExampleComp demonstrates the compatibility matrix (Table 1 of the
// paper).
func ExampleComp() {
	fmt.Println(hwtwbg.Comp(hwtwbg.S, hwtwbg.IS))
	fmt.Println(hwtwbg.Comp(hwtwbg.IX, hwtwbg.SIX))
	// Output:
	// true
	// false
}

// ExampleConv demonstrates the conversion matrix (Table 2 of the
// paper): holding IX and re-requesting S yields SIX.
func ExampleConv() {
	fmt.Println(hwtwbg.Conv(hwtwbg.IX, hwtwbg.S))
	// Output:
	// SIX
}
