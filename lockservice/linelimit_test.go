package lockservice

import (
	"bufio"
	"errors"
	"io"
	"net"
	"strings"
	"syscall"
	"testing"
	"time"
)

// wireLineLimit is the request-line bound the server has always had
// (bufio.Scanner's 1 MiB buffer): a line is served while its bytes
// before the newline number at most wireLineLimit-1, and one byte more
// closes the connection unanswered.
const wireLineLimit = 1 << 20

// lockAllLine returns a LOCKALL request of exactly n bytes before its
// newline: one resource whose name pads the line.
func lockAllLine(n int) string {
	const head, tail = "LOCKALL ", " S"
	return head + strings.Repeat("r", n-len(head)-len(tail)) + tail + "\n"
}

// rawConn dials the server and returns the connection with a reader.
func rawConn(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	return conn, bufio.NewReader(conn)
}

func exchange(t *testing.T, conn net.Conn, r *bufio.Reader, req string) string {
	t.Helper()
	if _, err := io.WriteString(conn, req); err != nil {
		t.Fatal(err)
	}
	reply, err := r.ReadString('\n')
	if err != nil {
		t.Fatalf("reply to a %d-byte request: %v", len(req), err)
	}
	return strings.TrimSpace(reply)
}

func TestLineLengthLimit(t *testing.T) {
	_, addr := startServer(t)

	t.Run("longest line served", func(t *testing.T) {
		conn, r := rawConn(t, addr)
		if got := exchange(t, conn, r, "BEGIN\n"); !strings.HasPrefix(got, "OK ") {
			t.Fatalf("BEGIN: %q", got)
		}
		if got := exchange(t, conn, r, lockAllLine(wireLineLimit-1)); got != "OK" {
			t.Fatalf("LOCKALL of %d bytes: %q, want OK", wireLineLimit-1, got)
		}
		// The session carries on after the long line.
		if got := exchange(t, conn, r, "COMMIT\nPING\n"); got != "OK" {
			t.Fatalf("COMMIT: %q", got)
		}
		if got, _ := r.ReadString('\n'); got != "PONG\n" {
			t.Fatalf("PING: %q", got)
		}
	})

	t.Run("one byte over closes unanswered", func(t *testing.T) {
		conn, r := rawConn(t, addr)
		if got := exchange(t, conn, r, "BEGIN\n"); !strings.HasPrefix(got, "OK ") {
			t.Fatalf("BEGIN: %q", got)
		}
		// The server may stop reading mid-line and close with bytes of
		// ours unread, so the write can fail and the close may arrive
		// as a reset; either way no reply line comes back.
		go io.WriteString(conn, lockAllLine(wireLineLimit)+"PING\n")
		rest, err := io.ReadAll(r)
		if err != nil && !errors.Is(err, syscall.ECONNRESET) {
			t.Fatalf("read after an over-long line: %v", err)
		}
		if len(rest) != 0 {
			t.Fatalf("got %q after an over-long line, want the connection closed unanswered", rest)
		}
	})
}
