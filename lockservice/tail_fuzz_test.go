package lockservice

import (
	"bufio"
	"bytes"
	"testing"
)

// FuzzTailStream feeds arbitrary bytes to the client as the frames that
// follow a TAIL header: BATCH headers with their record lines, HB and
// END frames, and whatever else a hostile server sends. Whatever the
// bytes, the client does not panic, OnBatch sees no more records than
// the input has lines, and every batch it delivers re-renders through
// tailBatchHeader to a line that parses back to the same batch. The
// checked-in corpus holds a good batch, a heartbeat, END, a count of
// 2^50 and a negative count.
func FuzzTailStream(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c := &Client{r: bufio.NewReader(bytes.NewReader(data))}
		lines := bytes.Count(data, []byte("\n"))
		records := 0
		c.tailStream(TailOptions{
			OnBatch: func(b TailBatch) error {
				if records += len(b.Records); records > lines {
					t.Fatalf("%d records delivered from %d lines", records, lines)
				}
				line := tailBatchHeader(b.Ring, len(b.Records), b.Next, b.Lost)
				ring, n, next, lost, err := parseTailBatchHeader(line)
				if err != nil || ring != b.Ring || n != len(b.Records) || next != b.Next || lost != b.Lost {
					t.Fatalf("%q parses as ring %d, n %d, next %d, lost %d, %v", line, ring, n, next, lost, err)
				}
				return nil
			},
		}, make(TailCursor, 4))
	})
}
