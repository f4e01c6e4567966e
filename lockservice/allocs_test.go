package lockservice

import (
	"net"
	"runtime/debug"
	"testing"

	"hwtwbg"
)

// TestWireVerbAllocs pins what one wire verb allocates, client and
// server together (AllocsPerRun counts the whole process, and the
// server answers before the client's read returns): nothing, except
// the one string a name-bearing request line becomes on the server.
// Each row is a whole transaction so the manager's state returns to
// where it started; its BEGIN went out with the previous COMMIT, whose
// two replies are both counted.
func TestWireVerbAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector allocates")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, hwtwbg.Options{}) // Period 0: no detector activations mid-count
	defer srv.Close()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetOpTag(7) // the tagged request shapes, as hwbench sends them

	batch := make([]hwtwbg.LockRequest, 8)
	for i := range batch {
		batch[i] = hwtwbg.LockRequest{Resource: hwtwbg.ResourceID("batch/" + string(rune('a'+i))), Mode: hwtwbg.S}
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	txn := func(body func()) func() {
		return func() {
			_, err := c.Begin()
			must(err)
			body()
			must(c.Commit())
		}
	}
	for _, row := range []struct {
		name   string
		run    func()
		budget float64
	}{
		{"PING", func() { must(c.Ping()) }, 0},
		{"BEGIN+COMMIT", txn(func() {}), 0},
		{"BEGIN+LOCK+COMMIT", txn(func() { must(c.Lock("acct/7", hwtwbg.X)) }), 1},
		{"BEGIN+TRYLOCK+COMMIT", txn(func() { must(c.TryLock("acct/7", hwtwbg.X)) }), 1},
		{"BEGIN+LOCKALL(8)+COMMIT", txn(func() { must(c.LockAll(batch)) }), 1},
	} {
		row.run() // warm pools and scratch buffers
		n := testing.AllocsPerRun(200, row.run)
		t.Logf("%s: %v allocs", row.name, n)
		if n > row.budget {
			t.Errorf("%s allocates %v times, budget %v", row.name, n, row.budget)
		}
	}
}

// raceEnabled reports whether this test binary was built with -race.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}
