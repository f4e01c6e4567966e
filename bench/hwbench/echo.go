package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"sync"
)

// echoRef is the in-run reference of the workloads whose cost is mostly
// waking another thread: a bare loopback line echo (bufio reader, bufio
// writer, one flush per line), one connection per load goroutine, the
// request line as long as the workload's mean request line. Every few tens
// of milliseconds of transactions are followed by a fixed burst of echo
// round trips on every connection at once, and a round's cost is reported as
// a multiple of the round trip, because raw loopback throughput on a shared
// host drifts by 2x between runs of the same code while this ratio does not.
type echoRef struct {
	ln    net.Listener
	conns []net.Conn
	rd    []*bufio.Reader
	line  []byte
	wg    sync.WaitGroup // server goroutines
}

func newEchoRef(conns, lineLen int) (*echoRef, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("echo listen: %w", err)
	}
	e := &echoRef{ln: ln, line: append(bytes.Repeat([]byte{'e'}, lineLen-1), '\n')}
	e.wg.Add(1)
	go e.accept()
	for i := 0; i < conns; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			e.close()
			return nil, fmt.Errorf("echo dial: %w", err)
		}
		e.conns = append(e.conns, c)
		e.rd = append(e.rd, bufio.NewReader(c))
	}
	return e, nil
}

func (e *echoRef) accept() {
	defer e.wg.Done()
	for {
		c, err := e.ln.Accept()
		if err != nil {
			return
		}
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			defer c.Close()
			r, w := bufio.NewReader(c), bufio.NewWriter(c)
			for {
				line, err := r.ReadSlice('\n')
				if err != nil {
					return
				}
				if _, err := w.Write(line); err != nil {
					return
				}
				if w.Flush() != nil {
					return
				}
			}
		}()
	}
}

// trip makes one round trip on connection i, on the caller's goroutine.
func (e *echoRef) trip(i int) error {
	if _, err := e.conns[i].Write(e.line); err != nil {
		return fmt.Errorf("echo: %w", err)
	}
	if _, err := e.rd[i].ReadSlice('\n'); err != nil {
		return fmt.Errorf("echo: %w", err)
	}
	return nil
}

func (e *echoRef) close() {
	e.ln.Close()
	for _, c := range e.conns {
		c.Close()
	}
	e.wg.Wait()
}
