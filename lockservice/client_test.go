package lockservice

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"hwtwbg"
)

// fakeServer answers each request line with the next canned reply.
func fakeServer(t *testing.T, replies ...string) *Client {
	t.Helper()
	cs, ss := net.Pipe()
	go func() {
		r := bufio.NewReader(ss)
		for _, reply := range replies {
			if _, err := r.ReadString('\n'); err != nil {
				return
			}
			fmt.Fprintf(ss, "%s\n", reply)
		}
		// Drain the QUIT from Close.
		r.ReadString('\n')
		ss.Close()
	}()
	c := NewClient(cs)
	t.Cleanup(func() { c.Close() })
	return c
}

func TestClientMalformedReplies(t *testing.T) {
	c := fakeServer(t, "GARBAGE")
	if err := c.Ping(); err == nil || !strings.Contains(err.Error(), "malformed") {
		t.Fatalf("err = %v", err)
	}
}

func TestClientBeginMalformedID(t *testing.T) {
	c := fakeServer(t, "OK notanumber")
	if _, err := c.Begin(); err == nil || !strings.Contains(err.Error(), "malformed") {
		t.Fatalf("err = %v", err)
	}
}

func TestClientErrReply(t *testing.T) {
	c := fakeServer(t, "ERR something broke")
	err := c.Lock("r", 5)
	if err == nil || !strings.Contains(err.Error(), "something broke") {
		t.Fatalf("err = %v", err)
	}
}

func TestClientAbortedAndBusyReplies(t *testing.T) {
	c := fakeServer(t, "ABORTED", "BUSY")
	if err := c.Lock("r", 5); !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v", err)
	}
	if err := c.TryLock("r", 5); !errors.Is(err, ErrBusy) {
		t.Fatalf("err = %v", err)
	}
}

func TestClientStatsParsing(t *testing.T) {
	tests := []struct {
		name    string
		reply   string
		want    Stats
		wantErr string
	}{
		{
			name:  "old server short reply",
			reply: "OK runs=10 cycles=4 aborted=3 repositioned=2 salvaged=1",
			want: Stats{Stats: hwtwbg.Stats{
				Runs: 10, CyclesSearched: 4, Aborted: 3, Repositioned: 2, Salvaged: 1,
			}},
		},
		{
			name:  "full reply with service fields",
			reply: "OK runs=10 cycles=4 aborted=3 repositioned=2 salvaged=1 hold_last_ns=120000 hold_max_ns=800000 shard_grants=424242",
			want: Stats{
				Stats: hwtwbg.Stats{
					Runs: 10, CyclesSearched: 4, Aborted: 3, Repositioned: 2, Salvaged: 1,
					ShardHoldLast: 120 * time.Microsecond,
					ShardHoldMax:  800 * time.Microsecond,
				},
				ShardGrants: 424242,
			},
		},
		{
			// A pre-PR-14 server still sends the retired stw_* keys; they
			// are unknown now and skipped, values unparsed.
			name:  "old server stw keys tolerated as unknown",
			reply: "OK runs=10 stw_total_ns=1500000 stw_last_ns=120000 stw_max_ns=fast shard_grants=7",
			want:  Stats{Stats: hwtwbg.Stats{Runs: 10}, ShardGrants: 7},
		},
		{
			name:  "duration exceeding int32 nanoseconds",
			reply: "OK hold_max_ns=86400000000000",
			want:  Stats{Stats: hwtwbg.Stats{ShardHoldMax: 24 * time.Hour}},
		},
		{
			name:  "snapshot detector keys",
			reply: "OK runs=3 false_cycles=2 validations=5 period_ns=20000000",
			want: Stats{
				Stats:  hwtwbg.Stats{Runs: 3, FalseCycles: 2, Validations: 5},
				Period: 20 * time.Millisecond,
			},
		},
		{
			name:    "snapshot detector key with non-integer value",
			reply:   "OK validations=many",
			wantErr: "malformed",
		},
		{
			// An older server still sends the last activation's validation
			// outcome; those keys are unknown now and skipped.
			name:  "last activation keys",
			reply: "OK runs=4 last_false_cycles=1 last_validations=3",
			want:  Stats{Stats: hwtwbg.Stats{Runs: 4}},
		},
		{
			// An old server that predates the last_* keys: the fields
			// simply stay zero (the "old server short reply" case above
			// covers the rest of the forward-compat story).
			name:  "server without last activation keys",
			reply: "OK runs=4 false_cycles=2",
			want:  Stats{Stats: hwtwbg.Stats{Runs: 4, FalseCycles: 2}},
		},
		{
			// Unknown keys are skipped with their values unparsed.
			name:  "last activation key with non-integer value",
			reply: "OK last_validations=lots",
			want:  Stats{},
		},
		{
			// A cost-model-era server: cm_* carries the scheduling cost
			// model (rate as a micro-hertz integer) and journal_* the
			// flight recorder's ring counters.
			name:  "cost model and journal keys",
			reply: "OK runs=5 cm_samples=12 cm_deadlocks=3 cm_rate_uhz=2500000 cm_detect_ns=150000 cm_persist_ns=4000000 cm_period_ns=10000000 journal_emitted=99 journal_overwritten=7",
			want: Stats{
				Stats:              hwtwbg.Stats{Runs: 5},
				CostModelSamples:   12,
				CostModelDeadlocks: 3,
				CostModelRate:      2.5,
				CostModelDetect:    150 * time.Microsecond,
				CostModelPersist:   4 * time.Millisecond,
				CostModelPeriod:    10 * time.Millisecond,
				JournalEmitted:     99,
				JournalOverwritten: 7,
			},
		},
		{
			name:    "cost model key with non-integer value",
			reply:   "OK cm_rate_uhz=fast",
			wantErr: "malformed",
		},
		{
			// An incremental-snapshot-era server: shards_copied and
			// shards_skipped are the lifetime skip totals (they promote
			// through the embedded hwtwbg.Stats). An older one also sent
			// the last activation's copy_ns/acquire_ns, unknown now and
			// skipped.
			name:  "incremental snapshot keys",
			reply: "OK runs=6 copy_ns=250000 acquire_ns=30000 shards_copied=48 shards_skipped=912",
			want:  Stats{Stats: hwtwbg.Stats{Runs: 6, ShardsCopied: 48, ShardsSkipped: 912}},
		},
		{
			// An old server that predates the incremental-snapshot keys:
			// the new fields simply stay zero.
			name:  "server without incremental snapshot keys",
			reply: "OK runs=6 hold_last_ns=120000",
			want:  Stats{Stats: hwtwbg.Stats{Runs: 6, ShardHoldLast: 120 * time.Microsecond}},
		},
		{
			// Unknown keys are skipped with their values unparsed.
			name:  "incremental snapshot key with non-integer value",
			reply: "OK copy_ns=slow",
			want:  Stats{},
		},
		{
			name:    "shard count key with non-integer value",
			reply:   "OK shards_skipped=most",
			wantErr: "malformed",
		},
		{
			name:    "journal key with non-integer value",
			reply:   "OK journal_emitted=lots",
			wantErr: "malformed",
		},
		{
			// A telemetry-era server: tail_* counts live TAIL sessions and
			// records lost to ring overwrite across them, and op_tags the
			// tagged operations attached over the wire.
			name:  "tail and op-tag keys",
			reply: "OK runs=8 tail_sessions=3 tail_lagged=17 op_tags=256",
			want: Stats{
				Stats:        hwtwbg.Stats{Runs: 8},
				TailSessions: 3,
				TailLagged:   17,
				OpTags:       256,
			},
		},
		{
			// An old server that predates the TAIL verb and op tags: the
			// new fields simply stay zero.
			name:  "server without tail or op-tag keys",
			reply: "OK runs=8 journal_emitted=99",
			want:  Stats{Stats: hwtwbg.Stats{Runs: 8}, JournalEmitted: 99},
		},
		{
			name:    "tail key with non-integer value",
			reply:   "OK tail_lagged=some",
			wantErr: "malformed",
		},
		{
			name:    "op-tag key with non-integer value",
			reply:   "OK op_tags=many",
			wantErr: "malformed",
		},
		{
			name:  "unknown keys and bare flags are skipped",
			reply: "OK runs=7 frobs=weird experimental shard_grants=9",
			want:  Stats{Stats: hwtwbg.Stats{Runs: 7}, ShardGrants: 9},
		},
		{
			name:  "empty payload",
			reply: "OK",
			want:  Stats{},
		},
		{
			name:    "known key with non-integer value",
			reply:   "OK runs=zebra",
			wantErr: "malformed",
		},
		{
			name:    "known duration key with non-integer value",
			reply:   "OK runs=3 hold_last_ns=fast",
			wantErr: "malformed",
		},
		{
			name:    "known key with empty value",
			reply:   "OK cycles=",
			wantErr: "malformed",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := fakeServer(t, tt.reply)
			st, err := c.Stats()
			if tt.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
					t.Fatalf("err = %v, want %q", err, tt.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if st != tt.want {
				t.Fatalf("stats = %+v, want %+v", st, tt.want)
			}
		})
	}
}

func TestClientConnectionDrop(t *testing.T) {
	cs, ss := net.Pipe()
	ss.Close()
	c := NewClient(cs)
	defer c.Close()
	if err := c.Ping(); err == nil {
		t.Fatal("ping on a dead pipe must fail")
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("dial to a closed port must fail")
	}
}
