// Package journal is the hwtwbg flight recorder: a per-shard,
// fixed-size ring of compact binary events written from the lock
// manager's hot path with zero allocations and no mutexes, and the dump
// encoding that carries them off the box. Aggregates (the metrics
// package) tell you *that* a latency spike or a deadlock happened; the
// journal retains the event interleaving that produced it. It is only
// the recorder: the views over its records (the offline report, SLO
// checks, near misses, deadlock postmortems and the Perfetto export)
// live in internal/jview, and cmd/hwtrace renders them.
//
// A Record is seven 64-bit words, and a ring slot is one 64-byte cache
// line: a lock word followed by those seven words. A writer claims a
// sequence number with one atomic fetch-add on the ring cursor, sets
// the slot's lock bit with a compare-and-swap, copies the payload with
// plain stores and publishes by storing seq+1 into the lock word, which
// also clears the lock bit. A reader copies a record only while holding
// the same lock bit, so no reader can ever see a half-written slot. A
// writer waits only for a reader copying that same slot (or a writer of
// another lap of it) and yields the processor after a bounded spin; a
// reader that finds a slot held past its own bounded spin treats the
// record as still in flight. Under overwrite pressure the ring keeps
// only the newest Cap() records per ring, with the loss observable via
// RingStats.Overwritten.
package journal

import (
	"cmp"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"hwtwbg/internal/lock"
)

// Kind classifies one journal record.
type Kind uint8

const (
	// KindNone is an empty slot (never emitted).
	KindNone Kind = iota
	// KindBegin: a transaction began (control ring).
	KindBegin
	// KindRequest: a lock request arrived (Lock or TryLock), before the
	// lock table saw it.
	KindRequest
	// KindBlock: a request enqueued; Arg is the queue depth at enqueue
	// (including the newcomer).
	KindBlock
	// KindGrant: a request was granted; Arg is the nanoseconds it spent
	// blocked (0 for immediate grants).
	KindGrant
	// KindAbort: a transaction aborted (explicitly, by cancellation, or
	// as a deadlock victim; control ring).
	KindAbort
	// KindCommit: a transaction committed (control ring).
	KindCommit
	// KindDetect: one detector activation finished; Txn is the
	// activation sequence number, Arg its total wall clock in
	// nanoseconds, Aux the cycles it searched (control ring). It and
	// the decision records that follow it are stamped where the
	// activation stopped searching and began to act, so that they sort
	// after the evidence and before the grants and aborts they caused;
	// an activation that resolved something ended that much later.
	KindDetect
	// KindVictim: the detector aborted Txn to break a deadlock; Aux is
	// the activation sequence (control ring).
	KindVictim
	// KindReposition: the detector resolved a deadlock by TDR-2 queue
	// repositioning at junction Txn on Resource; Aux is the activation
	// sequence (control ring).
	KindReposition
	// KindSalvage: victim Txn was rescued because an earlier abort
	// already granted its request; Aux is the activation sequence
	// (control ring).
	KindSalvage
	// KindCycleEdge: one edge of a resolved cycle — Txn is waited by
	// Arg (as a TxnID), induced by Resource; Mode is the waiter's
	// blocked mode for W edges and NL for H edges; Aux is the
	// activation sequence (control ring).
	KindCycleEdge
	// KindDetectCopy: the incremental snapshot work of one detector
	// activation — Txn is the activation sequence number, Arg the
	// shards copied (dirty), Aux the shards skipped as clean (control
	// ring). Emitted only when the table is sharded.
	KindDetectCopy
	// KindOpTag: the application attached an operation tag to Txn —
	// Arg is the app-defined uint64 trace/op id (control ring). The tag
	// is the cross-process correlation primitive: wait records of the
	// same transaction group under it in postmortems, hwtrace report
	// and near-miss output.
	KindOpTag
)

var kindNames = [...]string{
	KindNone:       "none",
	KindBegin:      "begin",
	KindRequest:    "request",
	KindBlock:      "block",
	KindGrant:      "grant",
	KindAbort:      "abort",
	KindCommit:     "commit",
	KindDetect:     "detect",
	KindVictim:     "victim",
	KindReposition: "reposition",
	KindSalvage:    "salvage",
	KindCycleEdge:  "cycle-edge",
	KindDetectCopy: "detect-copy",
	KindOpTag:      "op-tag",
}

// String names the kind ("grant", "cycle-edge", ...).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "invalid"
}

// Record flags.
const (
	// FlagConversion: the request re-requested by an existing holder
	// (lock conversion) rather than a fresh request.
	FlagConversion uint8 = 1 << iota
	// FlagTruncated: the resource id was longer than the inline prefix;
	// Res holds the first prefixSize bytes and RHash the full hash.
	FlagTruncated
	// FlagTry: the request came from TryLock rather than Lock.
	FlagTry
)

// prefixSize is how many leading bytes of the resource id a record
// stores inline. Longer ids keep their full FNV-1a hash in RHash (the
// stable identity) and set FlagTruncated.
const prefixSize = 16

// recordWords is the packed size of a Record in 64-bit words;
// recordBytes its size in the dump encoding.
const (
	recordWords = 7
	recordBytes = recordWords * 8
)

// Record is one journal event. The in-ring and on-disk representation
// is the packed [recordWords]uint64 form (see pack); this struct is the
// unpacked working form.
type Record struct {
	// TS is nanoseconds since the Unix epoch on the writer's one time
	// base: the lock manager stamps every record from its own clock,
	// the wall reading at Open plus monotonic time since, so the stamps
	// of all its rings never step backwards and drift from the system
	// clock only by that clock's slew since Open.
	TS    int64
	Txn   int64  // transaction id (or activation seq for KindDetect)
	Arg   uint64 // kind-specific: queue depth, wait ns, waited-by txn, ...
	RHash uint64 // FNV-1a 64 of the resource id; 0 when no resource
	Kind  Kind
	Mode  uint8 // lock.Mode; NL when no mode applies
	Shard uint8 // ring index the record was written to
	Flags uint8
	Aux   uint32           // kind-specific: activation sequence
	Res   [prefixSize]byte // resource id prefix, NUL padded
}

// Resource renders the stored resource id prefix; truncated ids get a
// trailing "…". Empty for records with no resource.
func (r *Record) Resource() string {
	n := 0
	for n < prefixSize && r.Res[n] != 0 {
		n++
	}
	if r.Flags&FlagTruncated != 0 {
		return string(r.Res[:n]) + "…"
	}
	return string(r.Res[:n])
}

// ModeString renders the record's lock mode in the paper's spelling.
func (r *Record) ModeString() string { return lock.Mode(r.Mode).String() }

// Time converts the record timestamp to a time.Time.
func (r *Record) Time() time.Time { return time.Unix(0, r.TS) }

// Hash is FNV-1a 64 over a resource id, the journal's resource
// identity (it never allocates).
func Hash(res string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(res); i++ {
		h ^= uint64(res[i])
		h *= 1099511628211
	}
	return h
}

// SetResource stores the resource identity: full hash plus inline
// prefix, setting FlagTruncated when the id does not fit.
func (r *Record) SetResource(res string) {
	if res == "" {
		return
	}
	r.RHash = Hash(res)
	n := copy(r.Res[:], res)
	if n < len(res) {
		r.Flags |= FlagTruncated
	}
}

// pack serializes the record into its seven-word wire form.
func (r *Record) pack(w *[recordWords]uint64) {
	w[0] = uint64(r.TS)
	w[1] = uint64(r.Txn)
	w[2] = r.Arg
	w[3] = r.RHash
	w[4] = uint64(r.Kind) | uint64(r.Mode)<<8 | uint64(r.Shard)<<16 | uint64(r.Flags)<<24 | uint64(r.Aux)<<32
	w[5] = leWord(r.Res[0:8])
	w[6] = leWord(r.Res[8:16])
}

// unpack deserializes the seven-word wire form.
func (r *Record) unpack(w *[recordWords]uint64) {
	r.TS = int64(w[0])
	r.Txn = int64(w[1])
	r.Arg = w[2]
	r.RHash = w[3]
	r.Kind = Kind(w[4])
	r.Mode = uint8(w[4] >> 8)
	r.Shard = uint8(w[4] >> 16)
	r.Flags = uint8(w[4] >> 24)
	r.Aux = uint32(w[4] >> 32)
	putLeWord(r.Res[0:8], w[5])
	putLeWord(r.Res[8:16], w[6])
}

func leWord(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putLeWord(b []byte, v uint64) {
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
}

// lockBit marks a slot's lock word while a writer fills the slot or a
// reader copies it; the remaining bits are seq+1 of the record the slot
// last published (0 while never written).
const lockBit = 1 << 63

// spinTries bounds a waiter's busy loop on a held lock word: a writer
// yields the processor after that many tries, so a holder preempted
// mid-copy cannot stall it for a time slice, and a reader gives up and
// treats the slot as in flight.
const spinTries = 64

// lockWord is a slot's state: seq+1 of the published record, with
// lockBit set while someone holds the slot. Its acquire (the CAS) and
// release (the store) order every plain payload access.
//
// hwlint:atomics-only — fields may only be touched via their methods.
type lockWord struct {
	v atomic.Uint64
}

// lock sets the lock bit, spinning while another holder has it, and
// returns the state it replaced.
func (l *lockWord) lock() uint64 {
	for i := 1; ; i++ {
		v := l.v.Load()
		if v&lockBit == 0 && l.v.CompareAndSwap(v, v|lockBit) {
			return v
		}
		if i%spinTries == 0 {
			runtime.Gosched()
		}
	}
}

// lockAt sets the lock bit only while the state is want, waiting out a
// brief hold by another reader or writer. On failure it returns the
// last state it saw, which may still carry lockBit.
func (l *lockWord) lockAt(want uint64) (uint64, bool) {
	var v uint64
	for i := 0; i < spinTries; i++ {
		v = l.v.Load()
		if v&lockBit != 0 {
			continue
		}
		if v != want {
			return v, false
		}
		if l.v.CompareAndSwap(want, want|lockBit) {
			return want, true
		}
	}
	return v, false
}

// unlock stores v, which carries no lock bit, releasing the slot.
func (l *lockWord) unlock(v uint64) { l.v.Store(v) }

// slot is one ring entry, exactly one cache line: a []slot of 512 B or
// more comes from a size class that is a multiple of 64 B, so it starts
// on a line boundary. The payload is plain memory, touched only while
// the lock word is held.
type slot struct {
	state   lockWord
	payload [recordWords]uint64
}

// write publishes w as record seq: lock, copy, then one store of seq+1
// that both publishes and unlocks. A slot that already holds a later
// lap keeps it; the record dropped is one Overwritten already counts.
func (s *slot) write(seq uint64, w *[recordWords]uint64) {
	if old := s.state.lock(); old > seq+1 {
		s.state.unlock(old)
		return
	}
	s.payload = *w
	s.state.unlock(seq + 1)
}

// read copies record seq into w. When the record is not there it
// reports false and whether it is gone for good: a slot whose state
// names a later lap was overwritten; any other state means the record
// is still in flight.
func (s *slot) read(seq uint64, w *[recordWords]uint64) (ok, gone bool) {
	v, ok := s.state.lockAt(seq + 1)
	if !ok {
		return false, v&^lockBit > seq+1
	}
	*w = s.payload
	s.state.unlock(v)
	return true, false
}

// ringAtomics is the ring's mutable lock-free state.
//
// hwlint:atomics-only — fields may only be touched via their methods.
type ringAtomics struct {
	cursor atomic.Uint64 // next sequence to claim; also the emit count
}

func (a *ringAtomics) claim() uint64 { return a.cursor.Add(1) - 1 }
func (a *ringAtomics) load() uint64  { return a.cursor.Load() }

// Ring is one fixed-size event ring. Emit never allocates and takes no
// mutex, so it is safe from any goroutine, including under the lock
// manager's shard mutexes: it waits only while a reader copies the same
// slot (or a writer a lap ahead or behind fills it), and yields the
// processor after a bounded spin. When the ring is full the oldest
// records are overwritten.
type Ring struct {
	at    ringAtomics
	slots []slot
	mask  uint64
	ring  uint8 // this ring's index within its Journal
}

// NewRing returns a ring retaining size records (rounded up to a power
// of two, minimum 8).
func NewRing(size int, ringIndex uint8) *Ring {
	n := 8
	for n < size {
		n <<= 1
	}
	return &Ring{slots: make([]slot, n), mask: uint64(n - 1), ring: ringIndex}
}

// Cap returns the ring's record capacity.
func (r *Ring) Cap() int { return len(r.slots) }

// Emit appends one record: claim a sequence number (a fetch-add), lock
// its slot (a CAS), copy the payload and publish (one store): three
// locked instructions. The record's Shard field is stamped here; its TS
// is the caller's, so Emit reads no clock. Emit is allocation-free: the
// caller's record is packed into a stack scratch array and copied into
// the pre-sized ring, a property the allocbudget analyzer proves (the
// hot path journals on every grant, so a single stray allocation here
// would show up on every benchmark).
//
//hwlint:hotpath allocs=0
func (r *Ring) Emit(rec *Record) {
	rec.Shard = r.ring
	var w [recordWords]uint64
	rec.pack(&w)
	seq := r.at.claim()
	r.slots[seq&r.mask].write(seq, &w)
}

// RingStats describes one ring's lifetime activity.
type RingStats struct {
	Emitted     uint64 `json:"emitted"`     // records ever written
	Overwritten uint64 `json:"overwritten"` // records lost to ring wrap
	Cap         int    `json:"cap"`         // ring capacity in records
}

// Stats returns the ring's counters.
func (r *Ring) Stats() RingStats {
	emitted := r.at.load()
	over := uint64(0)
	if emitted > uint64(len(r.slots)) {
		over = emitted - uint64(len(r.slots))
	}
	return RingStats{Emitted: emitted, Overwritten: over, Cap: len(r.slots)}
}

// Snapshot appends the ring's currently retained records to dst in
// sequence order (oldest first) and returns the extended slice. A
// record still in flight, or overwritten while we walk, is skipped;
// every record copied is whole, because it is copied under its slot's
// lock word.
func (r *Ring) Snapshot(dst []Record) []Record {
	hi := r.at.load()
	lo := uint64(0)
	if hi > uint64(len(r.slots)) {
		lo = hi - uint64(len(r.slots))
	}
	var w [recordWords]uint64
	for seq := lo; seq < hi; seq++ {
		if ok, _ := r.slots[seq&r.mask].read(seq, &w); !ok {
			continue
		}
		var rec Record
		rec.unpack(&w)
		dst = append(dst, rec)
	}
	return dst
}

// Journal is a set of rings: one per lock-table shard for the
// resource-level events (request/block/grant), plus one control ring
// (the last) for transaction lifecycle and detector events.
type Journal struct {
	rings []*Ring
}

// New returns a journal with shards+1 rings, each retaining perRing
// records (rounded up to a power of two).
func New(shards, perRing int) *Journal {
	j := &Journal{rings: make([]*Ring, shards+1)}
	for i := range j.rings {
		j.rings[i] = NewRing(perRing, uint8(i))
	}
	return j
}

// NumRings returns the ring count (shards + 1 control ring).
func (j *Journal) NumRings() int { return len(j.rings) }

// Ring returns ring i (shard rings first, control ring last).
func (j *Journal) Ring(i int) *Ring { return j.rings[i] }

// Control returns the control ring (transaction lifecycle and detector
// events).
func (j *Journal) Control() *Ring { return j.rings[len(j.rings)-1] }

// Stats sums every ring's counters.
func (j *Journal) Stats() RingStats {
	var out RingStats
	for _, r := range j.rings {
		st := r.Stats()
		out.Emitted += st.Emitted
		out.Overwritten += st.Overwritten
		out.Cap += st.Cap
	}
	return out
}

// Snapshot merges every ring's retained records, ordered by timestamp
// (ties broken by ring index, then per-ring sequence, so the order is
// deterministic for any fixed set of records).
func (j *Journal) Snapshot() []Record {
	n := 0
	for _, r := range j.rings {
		st := r.Stats()
		n += int(st.Emitted - st.Overwritten)
	}
	out := make([]Record, 0, n)
	for _, r := range j.rings {
		out = r.Snapshot(out)
	}
	// Per-ring snapshots are seq-ordered already; a stable sort by
	// (TS, ring) therefore keeps each ring's internal order.
	slices.SortStableFunc(out, func(a, b Record) int {
		if c := cmp.Compare(a.TS, b.TS); c != 0 {
			return c
		}
		return cmp.Compare(a.Shard, b.Shard)
	})
	return out
}
