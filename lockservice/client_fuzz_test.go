package lockservice

import (
	"bufio"
	"net"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"hwtwbg"
)

// FuzzClientReplies answers each of the client's reply readers with
// arbitrary bytes from a fake server on the other end of a net.Pipe,
// which reads the request, writes the bytes and closes: Stats, Ping,
// Begin, Lock, and Commit, which reads the two-line reply to the COMMIT
// and the BEGIN sent with it (endAndBegin). Whatever the bytes, every
// call returns once the server has closed and none panics. The seeds
// are a STATS line with every key of stats_keys.golden, `OK 0`, `OK -3`,
// a header longer than the client's read buffer and a multi-line body,
// plus the checked-in testdata/fuzz/FuzzClientReplies, one reply per
// reader.
func FuzzClientReplies(f *testing.F) {
	keys, err := os.ReadFile("testdata/stats_keys.golden")
	if err != nil {
		f.Fatal(err)
	}
	stats := "OK"
	for i, k := range strings.Fields(string(keys)) {
		stats += " " + k + "=" + strconv.Itoa(i)
	}
	f.Add([]byte(stats + "\n"))
	f.Add([]byte("OK 0\n"))
	f.Add([]byte("OK -3\n"))
	f.Add([]byte("OK " + strings.Repeat("9", 5000) + "\n"))
	f.Add([]byte("OK 3\nR1(X): Holder((T1, X, NL)) Queue()\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, call := range []func(*Client) error{
			func(c *Client) error { _, err := c.Stats(); return err },
			(*Client).Ping,
			func(c *Client) error { _, err := c.Begin(); return err },
			func(c *Client) error { return c.Lock("r", hwtwbg.X) },
			(*Client).Commit,
		} {
			replyTo(t, data, call)
		}
	})
}

// replyTo runs call on a client whose server answers its request with
// data and closes. The call must return within ten seconds.
func replyTo(t *testing.T, data []byte, call func(*Client) error) {
	t.Helper()
	cli, srv := net.Pipe()
	served := make(chan struct{})
	go func() {
		defer close(served)
		defer srv.Close()
		if _, err := bufio.NewReader(srv).ReadString('\n'); err == nil {
			srv.Write(data)
		}
	}()
	done := make(chan error, 1)
	go func() { done <- call(NewClient(cli)) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("call still running after the server closed; reply %q", data)
	}
	cli.Close() // frees a server still writing what the call did not read
	<-served
}
