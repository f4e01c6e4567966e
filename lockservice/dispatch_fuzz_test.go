package lockservice

import (
	"bytes"
	"errors"
	"io"
	"net"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"hwtwbg"
)

// The fuzzer's alphabet. Verbs come in mixed case, with the dotless ı
// and long ſ that strings.ToUpper maps to I and S, and with spellings
// that upper-case to no verb (Cyrillic т, an invalid UTF-8 byte).
// TAIL is left out: its reply is a journal stream, not request parsing.
var (
	fuzzVerbs = []string{
		"BEGIN", "begin", "BeGiN", "begın",
		"LOCK", "lock", "Lock",
		"LOCKALL", "lockall", "LockAll",
		"TRYLOCK", "trylock", "TryLock",
		"COMMIT", "commit", "commıt",
		"ABORT", "abort", "aborт",
		"PING", "ping", "pıng",
		"STATS", "ſtatſ", "stats",
		"QUIT", "quıt",
		"FROB", "tryloc\xff", "",
	}
	fuzzArgs = []string{
		"r", "a/1", "hot/0", "ſ", "x\xffy", "S", "X", "IS", "IX", "SIX", "NL",
		"six", "Q", "x", "tag=1", "tag=42", "tag=", "tag=-1",
		"tag=18446744073709551615", "tag=18446744073709551616", "tag=x", "TAG=1",
		strings.Repeat("n", 5000), // a line longer than the server's read buffer
	}
	fuzzSeps = []string{" ", "\t", "\v", "\f", "\r", "\u0085", "\u00a0", "\u2003", "  ", " \t", "\u200b", "\x85"}
)

// fuzzDecoder turns fuzz bytes into choices; an exhausted input picks 0.
type fuzzDecoder []byte

func (d *fuzzDecoder) pick(n int) int {
	if len(*d) == 0 {
		return 0
	}
	b := (*d)[0]
	*d = (*d)[1:]
	return int(b) % n
}

// decodeRequests builds a request stream from data: up to 32 lines of
// a verb and arguments joined by separators, with empty, blank, long-
// but-legal and over-long lines mixed in. It stops after QUIT or an
// over-long line, past which the server reads no further.
func decodeRequests(data []byte) []byte {
	d := fuzzDecoder(data)
	var out []byte
	for lines := 0; len(d) > 0 && lines < 32; lines++ {
		switch d.pick(32) {
		case 0: // empty
			out = append(out, '\n')
			continue
		case 1: // blank
			out = append(out, fuzzSeps[d.pick(len(fuzzSeps))]...)
			out = append(out, "\r\n"...)
			continue
		case 2: // the longest line served, or one byte more
			n := wireLineLimit - 1 + d.pick(2)
			out = append(out, lockAllLine(n)...)
			if n >= wireLineLimit {
				return out
			}
			continue
		}
		if d.pick(4) == 0 {
			out = append(out, fuzzSeps[d.pick(len(fuzzSeps))]...)
		}
		verb := fuzzVerbs[d.pick(len(fuzzVerbs))]
		out = append(out, verb...)
		for n := d.pick(6); n > 0; n-- {
			out = append(out, fuzzSeps[d.pick(len(fuzzSeps))]...)
			out = append(out, fuzzArgs[d.pick(len(fuzzArgs))]...)
		}
		if strings.ToUpper(verb) == "QUIT" {
			return append(out, '\n')
		}
		switch d.pick(8) {
		case 0:
			out = append(out, "\r\n"...)
		case 1:
			if len(d) == 0 {
				return out // a final line with no newline
			}
			out = append(out, '\n')
		default:
			out = append(out, '\n')
		}
	}
	return out
}

// statsValues masks STATS values, which count time and detector work.
var statsValues = regexp.MustCompile(`=-?[0-9]+`)

func maskStats(replies []byte) []byte {
	lines := bytes.Split(replies, []byte("\n"))
	for i, l := range lines {
		if bytes.HasPrefix(l, []byte("OK runs=")) {
			lines[i] = statsValues.ReplaceAll(l, []byte("=#"))
		}
	}
	return bytes.Join(lines, []byte("\n"))
}

// chunk splits a request stream into the writes that send it, as cuts
// says: the whole stream in one write when cuts is empty, one line per
// write when it starts with 0, and otherwise one write of cuts[i] bytes
// (at least 1) for each i, cutting lines anywhere, then the rest.
func chunk(reqs, cuts []byte) [][]byte {
	switch {
	case len(cuts) == 0:
		return [][]byte{reqs}
	case cuts[0] == 0:
		return bytes.SplitAfter(reqs, []byte("\n"))
	}
	var out [][]byte
	for _, c := range cuts {
		n := min(max(int(c), 1), len(reqs))
		out, reqs = append(out, reqs[:n]), reqs[n:]
	}
	return append(out, reqs)
}

// FuzzDispatch sends decoded request streams through a real connection
// to a fresh server and through the old string dispatcher on a fresh
// manager, and requires byte-identical reply streams (STATS values
// masked): the byte tokenizer, verb matching, tag and mode parsing, the
// line limit and the reply formatting all answer as the string path did.
// The stream goes out in the writes cuts decodes to, and the oracle
// answers one line at a time, so however the requests are pipelined the
// replies are the same bytes in the same order — including the replies
// owed when QUIT or an over-long line ends the session. Its seed corpus
// is testdata/fuzz/FuzzDispatch.
func FuzzDispatch(f *testing.F) {
	opts := hwtwbg.Options{Shards: 2, JournalSize: 64}
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		reqs := decodeRequests(data)

		lm := hwtwbg.Open(opts)
		var want bytes.Buffer
		refServe(lm, bytes.NewReader(reqs), &want)
		lm.Close()

		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := Serve(ln, opts)
		defer srv.Close()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(20 * time.Second))
		go func() {
			// After QUIT or an over-long line the server closes with our
			// bytes unread, so these writes may fail; the replies decide.
			for _, c := range chunk(reqs, cuts) {
				if _, err := conn.Write(c); err != nil {
					break
				}
			}
			conn.(*net.TCPConn).CloseWrite()
		}()
		got, err := io.ReadAll(conn)
		if err != nil && !errors.Is(err, syscall.ECONNRESET) {
			t.Fatalf("reading replies: %v", err)
		}
		if g, w := maskStats(got), maskStats(want.Bytes()); !bytes.Equal(g, w) {
			t.Fatalf("requests %.300q\nreplies %.300q\nwant    %.300q", reqs, g, w)
		}
	})
}
