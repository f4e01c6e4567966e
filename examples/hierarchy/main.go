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
	"runtime"

	"hwtwbg"
	"hwtwbg/granularity"
)

var ctx = context.Background()

func main() {
	g := granularity.New()
	check(g.AddRoot("db"))
	for _, tbl := range []hwtwbg.ResourceID{"orders", "users"} {
		check(g.Add(tbl, "db"))
		for i := 1; i <= 3; i++ {
			check(g.Add(hwtwbg.ResourceID(fmt.Sprintf("%s/row%d", tbl, i)), tbl))
		}
	}

	lm := hwtwbg.Open(hwtwbg.Options{})
	defer lm.Close()

	fmt.Println("=== fine-grained concurrency through intention locks ===")
	t1, t2 := lm.Begin(), lm.Begin()
	check(g.Lock(ctx, t1, "orders/row1", hwtwbg.X))
	check(g.Lock(ctx, t2, "orders/row2", hwtwbg.S))
	fmt.Printf("%v writes orders/row1, %v reads orders/row2 — no conflict:\n", t1.ID(), t2.ID())
	fmt.Print(lm.Snapshot())

	fmt.Println("\n=== an SIX scan-and-update ===")
	t3, t4 := lm.Begin(), lm.Begin()
	check(g.Lock(ctx, t3, "users", hwtwbg.S))
	check(g.Lock(ctx, t3, "users", hwtwbg.IX)) // S + IX = SIX on the table
	fmt.Printf("%v holds %v on users (scan all rows, update some)\n", t3.ID(), t3.Mode("users"))
	write := park(lm, t4, g, "users/row1", hwtwbg.X)
	fmt.Printf("%v's row write holds %v on db and blocks at users (IX vs SIX)\n", t4.ID(), t4.Mode("db"))
	check(t3.Commit())
	check(<-write)
	fmt.Printf("%v commits; %v's write completes with %v on users/row1\n", t3.ID(), t4.ID(), t4.Mode("users/row1"))
	for _, t := range []*hwtwbg.Txn{t1, t2, t4} {
		check(t.Commit())
	}

	fmt.Println("\n=== a deadlock through intention locks ===")
	lm2 := hwtwbg.Open(hwtwbg.Options{})
	defer lm2.Close()
	a, b := lm2.Begin(), lm2.Begin()
	check(g.Lock(ctx, a, "orders", hwtwbg.S)) // a reads all of orders
	check(g.Lock(ctx, b, "users", hwtwbg.S))  // b reads all of users
	done := map[*hwtwbg.Txn]<-chan error{
		a: park(lm2, a, g, "users/row1", hwtwbg.X),
		b: park(lm2, b, g, "orders/row1", hwtwbg.X),
	}
	fmt.Printf("%v: S(orders) then X(users/row1); %v: S(users) then X(orders/row1):\n", a.ID(), b.ID())
	fmt.Print(lm2.Snapshot())
	fmt.Printf("deadlocked: %v\n", lm2.Deadlocked())

	st := lm2.Detect()
	var victim, survivor *hwtwbg.Txn
	for _, t := range []*hwtwbg.Txn{a, b} {
		switch err := <-done[t]; {
		case errors.Is(err, hwtwbg.ErrAborted):
			victim = t
		case err == nil:
			survivor = t
		default:
			check(err)
		}
	}
	if st.Aborted != 1 || victim == nil || survivor == nil {
		panic(fmt.Sprintf("want one victim and one survivor, detector did %+v", st))
	}
	victim.Abort()
	fmt.Printf("detector aborted %v; deadlocked now: %v\n", victim.ID(), lm2.Deadlocked())
	fmt.Printf("survivor %v completed its acquisition:\n", survivor.ID())
	fmt.Print(lm2.Snapshot())
	check(survivor.Commit())
}

// park runs g.Lock for t on its own goroutine, returns once t is blocked,
// and delivers the Lock's result on the channel.
func park(lm *hwtwbg.Manager, t *hwtwbg.Txn, g *granularity.Graph, id hwtwbg.ResourceID, m hwtwbg.Mode) <-chan error {
	done := make(chan error, 1)
	go func() { done <- g.Lock(ctx, t, id, m) }()
	for !lm.Blocked(t.ID()) {
		select {
		case err := <-done:
			panic(fmt.Sprintf("%v was not blocked on %s: %v", t.ID(), id, err))
		default:
			runtime.Gosched()
		}
	}
	return done
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
