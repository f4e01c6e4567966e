// Hierarchy: multiple granularity locking over a database -> table ->
// row tree, showing how intention locks let fine-grained and
// coarse-grained transactions coexist, how an SIX scan-and-update works,
// and how a deadlock arising purely through intention locks is resolved
// by the same H/W-TWBG detector ("integrates without changes into a
// system that supports a resource hierarchy", Section 2 of the paper).
//
// The managers run with no background detector (Period 0), so the
// deadlock stands until the example calls Detect.
//
//	go run ./examples/hierarchy
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"

	"hwtwbg"
	"hwtwbg/granularity"
)

var ctx = context.Background()

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run builds the hierarchy, plays the three scenes and narrates them to
// w. Every step is deterministic: the one deadlock is broken by a
// Detect call, not a timer.
func run(w io.Writer) error {
	g := granularity.New()
	if err := g.AddRoot("db"); err != nil {
		return err
	}
	for _, tbl := range []hwtwbg.ResourceID{"orders", "users"} {
		if err := g.Add(tbl, "db"); err != nil {
			return err
		}
		for i := 1; i <= 3; i++ {
			if err := g.Add(hwtwbg.ResourceID(fmt.Sprintf("%s/row%d", tbl, i)), tbl); err != nil {
				return err
			}
		}
	}
	if err := intentions(w, g); err != nil {
		return err
	}
	return deadlock(w, g)
}

// intentions shows fine-grained transactions coexisting under intention
// locks, then an SIX scan-and-update holding back a row write.
func intentions(w io.Writer, g *granularity.Graph) error {
	lm := hwtwbg.Open(hwtwbg.Options{})
	defer lm.Close()

	fmt.Fprintln(w, "=== fine-grained concurrency through intention locks ===")
	t1, t2 := lm.Begin(), lm.Begin()
	if err := errors.Join(g.Lock(ctx, t1, "orders/row1", hwtwbg.X), g.Lock(ctx, t2, "orders/row2", hwtwbg.S)); err != nil {
		return err
	}
	fmt.Fprintf(w, "%v writes orders/row1, %v reads orders/row2 — no conflict:\n", t1.ID(), t2.ID())
	fmt.Fprint(w, lm.Snapshot())

	fmt.Fprintln(w, "\n=== an SIX scan-and-update ===")
	t3, t4 := lm.Begin(), lm.Begin()
	if err := g.Lock(ctx, t3, "users", hwtwbg.S); err != nil {
		return err
	}
	if err := g.Lock(ctx, t3, "users", hwtwbg.IX); err != nil { // S + IX = SIX on the table
		return err
	}
	fmt.Fprintf(w, "%v holds %v on users (scan all rows, update some)\n", t3.ID(), t3.Mode("users"))
	write, err := park(lm, t4, g, "users/row1", hwtwbg.X)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%v's row write holds %v on db and blocks at users (IX vs SIX)\n", t4.ID(), t4.Mode("db"))
	if err := t3.Commit(); err != nil {
		return err
	}
	if err := <-write; err != nil {
		return err
	}
	fmt.Fprintf(w, "%v commits; %v's write completes with %v on users/row1\n", t3.ID(), t4.ID(), t4.Mode("users/row1"))
	return errors.Join(t1.Commit(), t2.Commit(), t4.Commit())
}

// deadlock builds a cycle that runs only through intention locks and
// lets one Detect call break it.
func deadlock(w io.Writer, g *granularity.Graph) error {
	fmt.Fprintln(w, "\n=== a deadlock through intention locks ===")
	lm := hwtwbg.Open(hwtwbg.Options{})
	defer lm.Close()
	a, b := lm.Begin(), lm.Begin()
	if err := errors.Join(g.Lock(ctx, a, "orders", hwtwbg.S), g.Lock(ctx, b, "users", hwtwbg.S)); err != nil {
		return err // a reads all of orders, b all of users
	}
	aWrite, err := park(lm, a, g, "users/row1", hwtwbg.X)
	if err != nil {
		return err
	}
	bWrite, err := park(lm, b, g, "orders/row1", hwtwbg.X)
	if err != nil {
		return err
	}
	done := map[*hwtwbg.Txn]<-chan error{a: aWrite, b: bWrite}
	fmt.Fprintf(w, "%v: S(orders) then X(users/row1); %v: S(users) then X(orders/row1):\n", a.ID(), b.ID())
	fmt.Fprint(w, lm.Snapshot())
	fmt.Fprintf(w, "deadlocked: %v\n", lm.Deadlocked())

	st := lm.Detect()
	var victim, survivor *hwtwbg.Txn
	for _, t := range []*hwtwbg.Txn{a, b} {
		switch err := <-done[t]; {
		case errors.Is(err, hwtwbg.ErrAborted):
			victim = t
		case err == nil:
			survivor = t
		default:
			return err
		}
	}
	if st.Aborted != 1 || victim == nil || survivor == nil {
		return fmt.Errorf("want one victim and one survivor, detector did %+v", st)
	}
	victim.Abort()
	fmt.Fprintf(w, "detector aborted %v; deadlocked now: %v\n", victim.ID(), lm.Deadlocked())
	fmt.Fprintf(w, "survivor %v completed its acquisition:\n", survivor.ID())
	fmt.Fprint(w, lm.Snapshot())
	return survivor.Commit()
}

// park runs g.Lock for t on its own goroutine, returns once t is blocked,
// and delivers the Lock's result on the channel.
func park(lm *hwtwbg.Manager, t *hwtwbg.Txn, g *granularity.Graph, id hwtwbg.ResourceID, m hwtwbg.Mode) (<-chan error, error) {
	done := make(chan error, 1)
	go func() { done <- g.Lock(ctx, t, id, m) }()
	for !lm.Blocked(t.ID()) {
		select {
		case err := <-done:
			return nil, fmt.Errorf("%v was not blocked on %s: %v", t.ID(), id, err)
		default:
			runtime.Gosched()
		}
	}
	return done, nil
}
