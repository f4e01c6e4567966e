package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// The traced run keeps one span per call the benchmark makes into a layer's
// public function. Spans live in memory, in per-goroutine buffers, and are
// written out once at the end of the run; the program itself is not edited,
// so a layer's span covers everything below it that the benchmark cannot
// see (a lockservice span covers the server and the manager behind it).

type layer uint8

const (
	layerClient layer = iota // the benchmark's own transaction loop
	layerLockservice
	layerKV
	layerManager
	layerDetector
	numLayers
	// layerWait marks a span that is a transaction parked in Txn.Lock by
	// design (deadlock_storm's participants). It is written to the trace
	// file but is not a layer's busy time, so it has no share.
	layerWait = numLayers
)

var layerNames = [numLayers + 1]string{"client", "lockservice", "kv", "manager", "detector", "wait"}

type spanName uint8

const (
	spTxn spanName = iota
	spIteration
	spClientBegin
	spClientLock
	spClientLockAll
	spClientCommit
	spKVUpdate
	spKVGet
	spKVPut
	spMgrBegin
	spTxnLock
	spTxnLockWait
	spTxnLockAll
	spTxnCommit
	spDetect
	numSpanNames
)

var spanInfo = [numSpanNames]struct {
	name  string
	layer layer
}{
	spTxn:           {"txn", layerClient},
	spIteration:     {"iteration", layerClient},
	spClientBegin:   {"Client.Begin", layerLockservice},
	spClientLock:    {"Client.Lock", layerLockservice},
	spClientLockAll: {"Client.LockAll", layerLockservice},
	spClientCommit:  {"Client.Commit", layerLockservice},
	spKVUpdate:      {"Store.Update", layerKV},
	spKVGet:         {"Tx.Get", layerKV},
	spKVPut:         {"Tx.Put", layerKV},
	spMgrBegin:      {"Manager.Begin", layerManager},
	spTxnLock:       {"Txn.Lock", layerManager},
	spTxnLockWait:   {"Txn.Lock(parked)", layerWait},
	spTxnLockAll:    {"Txn.LockAll", layerManager},
	spTxnCommit:     {"Txn.Commit", layerManager},
	spDetect:        {"Manager.Detect", layerDetector},
}

// span holds no pointers, so a few hundred thousand of them cost the
// collector nothing to scan.
type span struct {
	start, end int64 // ns since the tracer's epoch
	txn        int32 // shared by every span of one transaction
	parent     int32 // index in the same buffer, -1 for a root
	name       spanName
}

// spanBuf is one goroutine's spans. A nil *spanBuf records nothing, so the
// workloads call begin/end unconditionally. After every traced round the
// spans are folded into the totals and dropped, all but the first
// keepPerBuf, which go to the trace file: a run keeps counts, not millions
// of spans.
type spanBuf struct {
	epoch time.Time
	spans []span
	open  []int32 // stack of spans begun and not ended

	self  [numLayers + 1]int64  // self time per layer, ns
	durs  [numSpanNames][]int64 // span durations, for the names report asks a median of
	kept  []span
	count int
}

// keepPerBuf bounds trace-<workload>.json (about 100 bytes a span).
const keepPerBuf = 25_000

func (b *spanBuf) begin(name spanName, txn int) int32 {
	if b == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(b.open); n > 0 {
		parent = b.open[n-1]
	}
	i := int32(len(b.spans))
	b.spans = append(b.spans, span{txn: int32(txn), parent: parent, name: name, start: int64(time.Since(b.epoch))})
	b.open = append(b.open, i)
	return i
}

func (b *spanBuf) end(i int32) {
	if b == nil {
		return
	}
	b.spans[i].end = int64(time.Since(b.epoch))
	b.open = b.open[:len(b.open)-1]
}

func (b *spanBuf) fold() {
	child := make([]int64, len(b.spans))
	for _, s := range b.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range b.spans {
		d := s.end - s.start
		b.self[spanInfo[s.name].layer] += d - child[i]
		if spanInfo[s.name].layer == layerLockservice {
			b.durs[s.name] = append(b.durs[s.name], d)
		}
	}
	b.count += len(b.spans)
	if base := int32(len(b.kept)); base < keepPerBuf {
		for _, s := range b.spans {
			if s.parent >= 0 {
				s.parent += base
			}
			b.kept = append(b.kept, s)
		}
	}
	b.spans = b.spans[:0]
}

type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	bufs  []*spanBuf
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// buf returns goroutine i's span buffer, nil when tr is nil.
func (tr *tracer) buf(i int) *spanBuf {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for len(tr.bufs) <= i {
		tr.bufs = append(tr.bufs, &spanBuf{epoch: tr.epoch})
	}
	return tr.bufs[i]
}

// fold ends a traced round of goroutine i, which must not be recording.
func (tr *tracer) fold(i int) {
	if tr != nil {
		tr.buf(i).fold()
	}
}

// report adds the trace.* and per-verb metrics, returns the self time of
// every layer in milliseconds and writes the trace file.
func (tr *tracer) report(m map[string]float64, workload, dir string) (map[string]float64, error) {
	var self [numLayers + 1]int64
	var durs [numSpanNames][]int64
	var total int64
	count := 0
	for _, b := range tr.bufs {
		for l, ns := range b.self {
			self[l] += ns
		}
		for n, d := range b.durs {
			durs[n] = append(durs[n], d...)
		}
		count += b.count
	}
	for _, ns := range self[:numLayers] {
		total += ns
	}
	for l, ns := range self[:numLayers] {
		share := 0.0
		if total > 0 {
			share = float64(ns) / float64(total)
		}
		m["trace."+layerNames[l]+"_share"] = share
	}
	m["trace.spans"] = float64(count)
	for name, key := range map[spanName]string{
		spClientBegin: "lockservice.begin_p50_us", spClientLock: "lockservice.lock_p50_us",
		spClientLockAll: "lockservice.lockall_p50_us", spClientCommit: "lockservice.commit_p50_us",
	} {
		m[key] = percentile(durs[name], 0.50) / 1e3
	}
	selfMs := map[string]float64{}
	for l, ns := range self {
		selfMs[layerNames[l]] = float64(ns) / 1e6
	}
	return selfMs, tr.write(filepath.Join(dir, "trace-"+workload+".json"))
}

// write emits {"spans":[{name,layer,start_ns,end_ns,parent,txn,id}...]}.
// id and parent are positions in this array; the spans of one goroutine are
// contiguous and in start order.
func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	w := bufio.NewWriter(f)
	w.WriteString(`{"spans":[`)
	id, line := 0, make([]byte, 0, 160)
	for _, b := range tr.bufs {
		base := id
		for _, s := range b.kept {
			line = line[:0]
			if id > 0 {
				line = append(line, ',')
			}
			info := spanInfo[s.name]
			line = append(line, "\n{\"id\":"...)
			line = strconv.AppendInt(line, int64(id), 10)
			line = append(line, ",\"name\":\""...)
			line = append(line, info.name...)
			line = append(line, "\",\"layer\":\""...)
			line = append(line, layerNames[info.layer]...)
			line = append(line, "\",\"start_ns\":"...)
			line = strconv.AppendInt(line, s.start, 10)
			line = append(line, ",\"end_ns\":"...)
			line = strconv.AppendInt(line, s.end, 10)
			line = append(line, ",\"parent\":"...)
			parent := int64(-1)
			if s.parent >= 0 {
				parent = int64(base) + int64(s.parent)
			}
			line = strconv.AppendInt(line, parent, 10)
			line = append(line, ",\"txn\":"...)
			line = strconv.AppendInt(line, int64(s.txn), 10)
			line = append(line, '}')
			w.Write(line)
			id++
		}
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace output: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	return nil
}
