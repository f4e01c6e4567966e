package lockservice_test

import (
	"fmt"
	"net"
	"time"

	"hwtwbg"
	"hwtwbg/lockservice"
)

// Example runs an in-process lock server and a client session against
// it: BEGIN, LOCK and COMMIT over the wire, and the lock table the
// server holds in between, which lockd's debug listener serves as
// /locktable.
func Example() {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	srv := lockservice.Serve(ln, hwtwbg.Options{Period: 10 * time.Millisecond})
	defer srv.Close()

	c, err := lockservice.Dial(srv.Addr().String())
	if err != nil {
		panic(err)
	}
	defer c.Close()

	if _, err := c.Begin(); err != nil {
		panic(err)
	}
	if err := c.Lock("accounts/7", hwtwbg.X); err != nil {
		panic(err)
	}
	fmt.Print(srv.Manager().Snapshot())
	if err := c.Commit(); err != nil {
		panic(err)
	}
	// Output:
	// accounts/7(X): Holder((T1, X, NL)) Queue()
}
