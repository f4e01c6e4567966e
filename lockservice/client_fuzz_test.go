package lockservice

import (
	"bufio"
	"bytes"
	"net"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

// FuzzClientReplies answers Stats, DumpJournal and Snapshot with
// arbitrary bytes from a fake server on the other end of a net.Pipe,
// which reads the request, writes the bytes and closes. Whatever the
// bytes, every call returns once the server has closed, none panics,
// and a DUMP or SNAPSHOT reply whose `OK n` header promises more lines
// than follow it is an error. The seeds are a STATS line with every
// key of stats_keys.golden, `OK 0`, `OK -3`, a header longer than the
// client's read buffer and a body cut short.
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
		replyTo(t, data, func(c *Client) error { _, err := c.Stats(); return err })
		n, lines, header := promised(data)
		for _, v := range []struct {
			verb string
			call func(*Client) error
		}{
			{"DUMP", func(c *Client) error { _, err := c.DumpJournal(); return err }},
			{"SNAPSHOT", func(c *Client) error { _, err := c.Snapshot(); return err }},
		} {
			if err := replyTo(t, data, v.call); err == nil && header && n > lines {
				t.Fatalf("%s accepted a header promising %d lines with %d after it: %q", v.verb, n, lines, data)
			}
		}
	})
}

// promised parses an `OK n` header line at the start of data: the n it
// announces and the number of whole lines after it.
func promised(data []byte) (n, lines int, ok bool) {
	head, rest, ok := bytes.Cut(data, []byte("\n"))
	if !ok {
		return 0, 0, false
	}
	payload, ok := bytes.CutPrefix(bytes.TrimSpace(head), []byte("OK "))
	if !ok {
		return 0, 0, false
	}
	n, err := strconv.Atoi(string(payload))
	return n, bytes.Count(rest, []byte("\n")), err == nil
}

// replyTo runs call on a client whose server answers its request with
// data and closes, and returns the call's error. The call must return
// within ten seconds.
func replyTo(t *testing.T, data []byte, call func(*Client) error) error {
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
	var err error
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("call still running after the server closed; reply %q", data)
	}
	cli.Close() // frees a server still writing what the call did not read
	<-served
	return err
}
