package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"regexp"
	"strings"
	"testing"
	"time"

	"hwtwbg/journal"
	"hwtwbg/lockservice"
)

// TestRunServesScriptedClient starts lockd on a free loopback port,
// drives it with a scripted protocol client and stops it. The banner
// must show the flags took effect, every request of the script must
// succeed, and the server's own counts must agree with the client's:
// STATS's grants, victims and op tags, and the commit records of its
// journal dump.
func TestRunServesScriptedClient(t *testing.T) {
	pr, pw := io.Pipe()
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-shards", "4", "-period", "5ms"}, pw, stop)
		pw.Close()
	}()
	out := bufio.NewScanner(pr)
	if !out.Scan() {
		t.Fatal("no banner")
	}
	banner := regexp.MustCompile(`^lockd: serving on (\S+) \(fixed scheduling, detection every 5ms, 4 shards\)$`).FindStringSubmatch(out.Text())
	if banner == nil {
		t.Fatalf("banner %q", out.Text())
	}
	rest := make(chan string, 1)
	go func() {
		var b strings.Builder
		for out.Scan() {
			b.WriteString(out.Text() + "\n")
		}
		rest <- b.String()
	}()
	stopped := false
	defer func() {
		if !stopped {
			close(stop)
		}
	}()

	// The script: transaction i, tagged i%4+1, takes X on res/(i%8) and
	// S on res/((i+3)%8), then commits. The locks of one transaction
	// never meet, and each transaction ends before the next begins.
	const txns = 20
	var script strings.Builder
	var verbs []string
	for i := 0; i < txns; i++ {
		fmt.Fprintf(&script, "BEGIN tag=%d\nLOCK res/%d X\nLOCK res/%d S\nCOMMIT\n", i%4+1, i%8, (i+3)%8)
		verbs = append(verbs, "BEGIN", "LOCK", "LOCK", "COMMIT")
	}
	script.WriteString("QUIT\n")
	verbs = append(verbs, "QUIT")

	conn, err := net.Dial("tcp", banner[1])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.WriteString(conn, script.String()); err != nil {
		t.Fatal(err)
	}
	replies := bufio.NewScanner(conn)
	grants, commits := 0, 0
	for _, verb := range verbs {
		if !replies.Scan() {
			t.Fatalf("connection ended before the reply to %s: %v", verb, replies.Err())
		}
		reply := replies.Text()
		switch {
		case verb == "QUIT" && reply == "BYE":
		case verb == "BEGIN" && strings.HasPrefix(reply, "OK "):
		case verb == "LOCK" && reply == "OK":
			grants++
		case verb == "COMMIT" && reply == "OK":
			commits++
		default:
			t.Fatalf("%s answered %q", verb, reply)
		}
	}

	c, err := lockservice.Dial(banner[1])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ShardGrants != uint64(grants) || st.Aborted != 0 || st.OpTags != txns || st.Period != 5*time.Millisecond {
		t.Errorf("STATS grants=%d aborted=%d op_tags=%d period=%v, the client saw %d grants, no victim, %d tags, period 5ms",
			st.ShardGrants, st.Aborted, st.OpTags, st.Period, grants, txns)
	}
	recs, err := c.DumpJournal()
	if err != nil {
		t.Fatal(err)
	}
	journaled := 0
	for _, r := range recs {
		if r.Kind == journal.KindCommit {
			journaled++
		}
	}
	if journaled != commits || commits != txns {
		t.Errorf("journal holds %d commits, the client made %d of %d", journaled, commits, txns)
	}

	close(stop)
	stopped = true
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
	if s := <-rest; s != "lockd: shutting down\n" {
		t.Errorf("after the banner lockd printed:\n%s", s)
	}
}

// TestRunRejectsBadFlags: a bad command line is a usage error, reported
// before anything listens.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{{"-scheduling", "nope"}, {"-no-such-flag"}} {
		if err := run(args, io.Discard, nil); err != errUsage {
			t.Errorf("run(%q) = %v, want errUsage", args, err)
		}
	}
}
