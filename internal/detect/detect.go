// Package detect implements the paper's periodic deadlock detection and
// resolution algorithm (Section 5): the RST/TST internal structure, the
// three-step periodic-detection-resolution procedure, the directed walk
// with ancestor/current bookkeeping, and victim selection by the TRRP
// Disconnection Rule (TDR-1 aborts a junction transaction, TDR-2
// repositions queue entries and aborts nobody).
//
// A Detector is bound to a lock table; each call to Run performs one
// periodic activation and mutates the table (queue repositionings and
// victim aborts, with the resulting grants), returning what happened.
package detect

import (
	"fmt"
	"slices"
	"time"

	"hwtwbg/internal/lock"
	"hwtwbg/internal/table"
)

// Table is the slice of the lock-table API the detector reads and
// mutates. *table.Table implements it directly; the public hwtwbg
// package also implements it with a multi-shard adapter, so one
// detector activation can run over S sharded tables as if they were a
// single merged table (the stop-the-world seam of the sharded facade).
//
// EachResource must iterate in global resource-id order: the Step 1
// wiring, and therefore every victim and TDR-2 choice, is defined over
// that order, and an adapter that iterated shard-by-shard would drift
// from the single-table detector on the same logical state.
type Table interface {
	EachResource(f func(*table.Resource) bool)
	Resource(rid table.ResourceID) *table.Resource
	PeekAVST(rid table.ResourceID, j table.TxnID, av, st []table.QueueEntry) ([]table.QueueEntry, []table.QueueEntry)
	RepositionAVST(rid table.ResourceID, j table.TxnID, av, st []table.QueueEntry) ([]table.QueueEntry, []table.QueueEntry)
	Abort(txn table.TxnID) []table.Grant
	ScheduleQueue(rid table.ResourceID) []table.Grant
}

// CostFunc prices a transaction for victim selection. Lower cost means a
// cheaper victim. The paper leaves the metric open ("number of locks it
// holds, starting time, CPU and I/O time consumed, or some combination").
type CostFunc func(table.TxnID) float64

// BoostFunc bumps the cost of an ST-member transaction after its queue
// entry was repositioned by TDR-2, "to prevent the requests in ST from
// the repeated application of TDR-2".
type BoostFunc func(old float64) float64

// Config parameterizes a Detector. The zero value is usable: every
// transaction costs 1, the boost adds 1, and TDR-2 is enabled.
type Config struct {
	// Cost prices victim candidates; nil means every transaction costs 1.
	Cost CostFunc
	// Boost is applied to ST members' costs after a TDR-2 repositioning;
	// nil means old+1. It only has effect when Costs is non-nil, since
	// boosting requires a mutable cost store.
	Boost BoostFunc
	// Costs, when non-nil, is the mutable cost store consulted before
	// Cost and updated by Boost.
	Costs *CostTable
	// DisableTDR2 turns off TDR-2 candidates entirely (ablation: resolve
	// by abort only, like the conventional schemes).
	DisableTDR2 bool
	// PreferAbortOnTie breaks cost ties in favor of TDR-1 (abort) rather
	// than the default preference for TDR-2 (no abort).
	PreferAbortOnTie bool
	// Trace, when non-nil, receives one event per algorithm step — the
	// walk's moves, cycle detections, candidate pricing and Step 3
	// confirmations — letting tools narrate a run the way the paper
	// narrates its examples.
	Trace func(TraceEvent)
}

func (c Config) cost(t table.TxnID) float64 {
	if c.Costs != nil {
		return c.Costs.Cost(t)
	}
	if c.Cost != nil {
		return c.Cost(t) //hwlint:allow allocbudget -- caller-supplied price; the manager's reads the snapshot's held counts without allocating
	}
	return 1
}

func (c Config) boost(old float64) float64 {
	if c.Boost != nil {
		return c.Boost(old) //hwlint:allow allocbudget -- caller-supplied boost, applied only with a Costs table, which the manager does not use
	}
	return old + 1
}

// CostTable is a mutable per-transaction cost store (the paper's
// cost-table). Transactions without an explicit entry cost Default.
type CostTable struct {
	// Default is the cost of transactions with no explicit entry.
	Default float64
	m       map[table.TxnID]float64
}

// NewCostTable returns a cost table whose unlisted transactions cost def.
func NewCostTable(def float64) *CostTable {
	return &CostTable{Default: def, m: make(map[table.TxnID]float64)}
}

// Cost returns the cost of t.
func (c *CostTable) Cost(t table.TxnID) float64 {
	if v, ok := c.m[t]; ok {
		return v
	}
	return c.Default
}

// Set assigns an explicit cost to t.
func (c *CostTable) Set(t table.TxnID, cost float64) {
	if c.m == nil {
		c.m = make(map[table.TxnID]float64) //hwlint:allow allocbudget -- a zero-value CostTable's first Set only
	}
	c.m[t] = cost
}

// Delete removes t's entry (it reverts to Default).
func (c *CostTable) Delete(t table.TxnID) { delete(c.m, t) }

// CycleEdge is one edge of a detected cycle, with the resource that
// induced it — the evidence a snapshot-based caller needs to re-verify
// the cycle against the live lock table before acting on the resolution
// (validate-then-act). From is waited by To (To waits for From). For a
// W edge, Mode is the source's blocked mode and the edge asserts From
// sits immediately before To in Resource's queue; for an H edge
// (Mode == NL) it asserts the ECR-1/ECR-2 conflict still holds.
type CycleEdge struct {
	From, To table.TxnID
	Resource table.ResourceID
	Mode     lock.Mode // NL for H edges
}

// W reports whether the edge is a queue-adjacency (W) edge.
func (e CycleEdge) W() bool { return e.Mode != lock.NL }

// Resolution records one cycle the directed walk found and the TDR
// decision that resolved it, in discovery order. STW callers apply
// resolutions directly (the table the detector ran over was live);
// snapshot callers replay them against the live shards, re-verifying
// each Cycle first and dropping resolutions whose evidence no longer
// holds (false cycles from a torn snapshot).
type Resolution struct {
	// Cycle is the cycle's edge list in cycle order (each edge's To is
	// the next edge's From; the last edge closes back to the first).
	Cycle []CycleEdge
	// TDR2 selects the resolution kind: reposition (true) or abort.
	TDR2 bool
	// Victim is the junction transaction; for TDR-1 the one to abort,
	// for TDR-2 the junction whose queue prefix is repositioned.
	Victim table.TxnID
	// Resource is the repositioned queue (TDR-2 only).
	Resource table.ResourceID
	// Salvaged is set by Step 3 on TDR-1 resolutions whose victim was
	// rescued because an earlier abort had already granted its request;
	// a salvaged resolution needs no live action.
	Salvaged bool
}

// Reposition records one TDR-2 application: the requests in ST were moved
// right after those in AV in the queue of Resource.
type Reposition struct {
	Resource table.ResourceID
	Junction table.TxnID // the junction transaction whose TRRP was disconnected
	AV, ST   []table.QueueEntry
}

// String prints "R2: AV[(T9, IX) (T3, S)] ST[(T8, X)]".
func (r Reposition) String() string {
	s := string(r.Resource) + ": AV["
	for i, q := range r.AV {
		if i > 0 {
			s += " "
		}
		s += q.String()
	}
	s += "] ST["
	for i, q := range r.ST {
		if i > 0 {
			s += " "
		}
		s += q.String()
	}
	return s + "]"
}

// Result reports one periodic activation. Its slices, and the Cycle, AV
// and ST slices inside them, live in the detector's arenas: they are
// valid until that detector's next Run, and a caller that keeps any of
// them longer must copy.
type Result struct {
	// Aborted lists the victims actually aborted at Step 3, in
	// processing order.
	Aborted []table.TxnID
	// Salvaged lists victims that were selected during Step 2 but
	// removed from the abortion list at Step 3 because an earlier abort
	// had already granted their request (Example 5.1's refinement).
	Salvaged []table.TxnID
	// Repositioned lists the TDR-2 applications of this activation; each
	// resolved (part of) a deadlock without aborting anyone.
	Repositioned []Reposition
	// Resolutions lists every cycle found, with its TDR decision and the
	// edge evidence needed to re-verify it, in discovery order. Step 3
	// marks the salvaged ones. len(Resolutions) == CyclesSearched.
	Resolutions []Resolution
	// Granted lists every request that became granted during Step 3.
	Granted []table.Grant
	// CyclesSearched is the paper's c': how many cycles the directed
	// walk actually found and resolved (c' <= c and c' <= n).
	CyclesSearched int
	// EdgeVisits counts edge-cursor operations during Step 2; it is the
	// empirical side of the O(n + e*(c'+1)) time bound.
	EdgeVisits int
	// Vertices and Edges are the n and e of this activation's graph.
	Vertices, Edges int
	// BuildTime, SearchTime and ResolveTime decompose the activation:
	// Step 1 (TST construction from the lock table), Step 2 (the
	// directed walk with TDR-1/TDR-2 victim selection, including any
	// queue repositionings) and Step 3 (abort confirmation and queue
	// rescheduling). Their sum is the algorithmic part of a detector
	// pause; the caller adds whatever synchronization it paid to get a
	// consistent table.
	BuildTime, SearchTime, ResolveTime time.Duration
}

// Detector runs the periodic-detection-resolution algorithm against a
// lock table. It is not safe for concurrent use with table mutations;
// the caller serializes (the public hwtwbg package does).
type Detector struct {
	tb  Table
	cfg Config

	// Per-run state (the TST of the paper), rebuilt by Step 1.
	verts map[table.TxnID]*vertex
	order []table.TxnID // all transaction ids, ascending ("for v := 1 to N")

	abortion    []int // indexes into resolutions of the TDR-1 ones, in selection order
	change      []table.ResourceID
	reposs      []Reposition
	resolutions []Resolution
	aborted     []table.TxnID
	salvaged    []table.TxnID
	granted     []table.Grant

	cycles     int
	edgeVisits int

	// Storage is kept across runs, so a steady-state activation
	// allocates nothing: the "reasonable storage complexity" of Section
	// 5 in practice. Vertices are pooled in fixed chunks. The arenas
	// hold what a Result and the trace point into — cycle vertices,
	// cycle evidence, TDR-2's AV/ST entries — appended to during a run
	// and truncated by the next one (see Result). rev, peekAV and peekST
	// are scratch that nothing outlives.
	chunks     [][]vertex
	usedVerts  int
	grantSet   map[table.TxnID]bool
	cycleVerts []table.TxnID
	evidence   []CycleEdge
	queued     []table.QueueEntry
	rev        []table.TxnID
	peekAV     []table.QueueEntry
	peekST     []table.QueueEntry

	// rules is Step 1's scratch for one resource's edges. wireR is its
	// EachResource visitor, bound once: a method value made per run
	// would be allocated per run.
	rules []CycleEdge
	wireR func(*table.Resource) bool
}

// vertex is one TST entry: the waited adjacency list (W edge first, then
// H edges), the resumable edge cursor, and the ancestor mark.
type vertex struct {
	edges    []wedge
	cur      int              // index into edges; len(edges) plays the role of current = nil
	ancestor table.TxnID      // 0 unvisited, rootMark for the walk root, else the DFS parent
	pr       table.ResourceID // the resource whose queue it waits in, "" when none
}

// wedge is one waited-list edge: (lock, tid) in the paper's encoding,
// plus the resource that induced it (carried so that a detected cycle
// can be reported with re-verifiable evidence). Mode != NL identifies a
// W edge; To == 0 marks the end of a queue.
type wedge struct {
	Mode lock.Mode
	To   table.TxnID
	rsrc table.ResourceID
}

// rootMark is the paper's -1 ancestor value marking the walk's root.
const rootMark table.TxnID = -1

// New returns a detector bound to tb (a *table.Table, or any adapter
// satisfying the Table interface).
func New(tb Table, cfg Config) *Detector {
	d := &Detector{
		tb:       tb,
		cfg:      cfg,
		verts:    make(map[table.TxnID]*vertex),
		grantSet: make(map[table.TxnID]bool),
	}
	d.wireR = d.wire
	return d
}

// vertexChunk is the pooled allocation unit.
const vertexChunk = 64

// allocVertex hands out a recycled vertex from the chunk pool.
func (d *Detector) allocVertex() *vertex {
	ci, off := d.usedVerts/vertexChunk, d.usedVerts%vertexChunk
	if ci == len(d.chunks) {
		d.chunks = append(d.chunks, make([]vertex, vertexChunk))
	}
	d.usedVerts++
	v := &d.chunks[ci][off]
	v.edges = v.edges[:0]
	v.cur = 0
	v.ancestor = 0
	v.pr = ""
	return v
}

// Run performs one periodic activation: Step 1 builds the H edges and
// resets the walk state, Step 2 finds and resolves cycles selecting
// victims by TDR, and Step 3 confirms aborts and grants. The table is
// left deadlock-free. The per-step wall-clock breakdown is reported in
// the Result's BuildTime/SearchTime/ResolveTime.
//
// The Result and every Cycle, AV and ST slice inside it are valid until
// this detector's next Run, which reuses their storage; so are the
// Cycle slices of the run's TraceCycle events.
func (d *Detector) Run() Result {
	t0 := time.Now()
	d.step1()
	t1 := time.Now()
	d.step2()
	t2 := time.Now()
	res := d.step3()
	res.BuildTime = t1.Sub(t0)
	res.SearchTime = t2.Sub(t1)
	res.ResolveTime = time.Since(t2)
	return res
}

// step1 constructs the per-run TST from the edges every resource
// induces by the Edge Construction Rules (RuleEdges), and initializes
// ancestor/current plus the global lists and arenas.
func (d *Detector) step1() {
	clear(d.verts)
	d.usedVerts = 0
	d.order = d.order[:0]
	d.abortion = d.abortion[:0]
	d.change = d.change[:0]
	d.reposs = d.reposs[:0]
	d.resolutions = d.resolutions[:0]
	d.aborted = d.aborted[:0]
	d.salvaged = d.salvaged[:0]
	d.granted = d.granted[:0]
	d.cycleVerts = d.cycleVerts[:0]
	d.evidence = d.evidence[:0]
	d.queued = d.queued[:0]
	d.cycles = 0
	d.edgeVisits = 0

	d.tb.EachResource(d.wireR)
	slices.Sort(d.order)
	// ancestor and current start clean: ancestor = 0, current = waited.
	// (vertex zero values already satisfy this.)
}

// vertex returns id's TST entry, creating it on first mention.
func (d *Detector) vertex(id table.TxnID) *vertex {
	v, ok := d.verts[id]
	if !ok {
		v = d.allocVertex()
		d.verts[id] = v
		d.order = append(d.order, id)
	}
	return v
}

// wire adds the edges r induces to the TST. A W edge goes to the front
// of its source's waited list ("the edge whose lock is not NL is put at
// the front"), behind any W edge already there: only a snapshot merged
// from shards copied at different instants can queue one transaction
// twice, and then its W edges keep resource order.
func (d *Detector) wire(r *table.Resource) bool {
	d.rules = RuleEdges(d.rules[:0], r)
	for _, e := range d.rules {
		w := wedge{Mode: e.Mode, To: e.To, rsrc: e.Resource}
		if !e.W() {
			d.vertex(e.To) // an H edge's target exists as a vertex
			v := d.vertex(e.From)
			v.edges = append(v.edges, w)
			continue
		}
		v := d.vertex(e.From)
		v.pr = e.Resource
		i := 0
		for i < len(v.edges) && v.edges[i].Mode != lock.NL {
			i++
		}
		v.edges = append(v.edges, wedge{})
		copy(v.edges[i+1:], v.edges[i:])
		v.edges[i] = w
	}
	return true
}

// step2 is the directed walk of the paper: for each transaction in id
// order, walk the TST following current cursors, detecting a cycle
// whenever an edge reaches a vertex with a non-zero ancestor, resolving
// it via victim selection, and resuming at the vertex that closed it.
func (d *Detector) step2() {
	for _, root := range d.order {
		d.verts[root].ancestor = rootMark
		v := root
		for v != rootMark {
			vv := d.verts[v]
			if vv.cur >= len(vv.edges) { // current = nil
				w := vv.ancestor
				vv.ancestor = 0
				to := w
				if w == rootMark {
					to = 0 // the root's walk is done
				}
				d.emit(TraceEvent{Kind: TraceBacktrack, From: v, To: to})
				v = w
				continue
			}
			e := vv.edges[vv.cur]
			d.edgeVisits++
			w := e.To
			if w == 0 || d.exhausted(w) {
				d.emit(TraceEvent{Kind: TraceSkip, From: v, To: w})
				vv.cur++ // current := link
				continue
			}
			if d.verts[w].ancestor != 0 {
				if !d.victimSelection(v, w) {
					d.emit(TraceEvent{Kind: TraceSkip, From: v, To: w})
					vv.cur++
					continue
				}
				d.cycles++
				v = w
				continue
			}
			d.emit(TraceEvent{Kind: TraceVisit, From: v, To: w})
			d.verts[w].ancestor = v
			v = w
		}
	}
}

// exhausted reports whether w's current is nil (fully explored, or
// killed by a previous resolution).
func (d *Detector) exhausted(w table.TxnID) bool {
	vw, ok := d.verts[w]
	return !ok || vw.cur >= len(vw.edges)
}

// kill sets a vertex's current to nil so the walk never enters it again.
func (d *Detector) kill(id table.TxnID) {
	if v, ok := d.verts[id]; ok {
		v.cur = len(v.edges)
	}
}

// step3 confirms aborts and grants: victims that an earlier abort already
// granted are salvaged, the rest are aborted (releasing their locks and
// scheduling the affected resources), and finally every change-list
// resource has its queue scheduled. The abortion list is processed most
// recent first; inner cycles are detected after the outer ones they
// nest in, so this order maximizes the chance that aborting a later
// victim salvages an earlier one (Example 5.1).
func (d *Detector) step3() Result {
	res := Result{
		CyclesSearched: d.cycles,
		EdgeVisits:     d.edgeVisits,
		Vertices:       len(d.order),
	}
	for _, v := range d.verts {
		res.Edges += len(v.edges)
	}
	clear(d.grantSet)
	for i := len(d.abortion) - 1; i >= 0; i-- {
		r := &d.resolutions[d.abortion[i]]
		v := r.Victim
		if d.grantSet[v] {
			d.emit(TraceEvent{Kind: TraceSalvage, From: v})
			d.salvaged = append(d.salvaged, v)
			r.Salvaged = true
			continue
		}
		d.emit(TraceEvent{Kind: TraceAbort, From: v})
		d.record(d.tb.Abort(v))
		d.aborted = append(d.aborted, v)
	}
	for _, rid := range d.change {
		d.record(d.tb.ScheduleQueue(rid))
	}
	// Clipped, so a caller's append copies instead of writing into the
	// detector's storage.
	res.Aborted = slices.Clip(d.aborted)
	res.Salvaged = slices.Clip(d.salvaged)
	res.Repositioned = slices.Clip(d.reposs)
	res.Resolutions = slices.Clip(d.resolutions)
	res.Granted = slices.Clip(d.granted)
	return res
}

// record notes grants made during Step 3.
func (d *Detector) record(gs []table.Grant) {
	for _, g := range gs {
		d.grantSet[g.Txn] = true
	}
	d.granted = append(d.granted, gs...)
}

// String identifies the detector in logs.
func (d *Detector) String() string {
	return fmt.Sprintf("detect.Detector(%d txns known)", len(d.verts))
}
