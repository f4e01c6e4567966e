package jview

import (
	"slices"
	"sort"
	"time"

	"hwtwbg/journal"
)

// Deadlock postmortems and the deadlock-event history are views over
// the journal, built when read (DESIGN.md §10.2). A resolving activation
// only emits: KindDetect, then per resolution acted on its
// KindVictim/KindReposition record immediately followed by that
// resolution's own KindCycleEdge records, then the KindSalvage records.
// Emission order is the grouping — cycle membership cannot be, since two
// cycles found in one activation can share a vertex that is the other's
// victim — and a view is as complete as the rings are when read.

// Postmortems renders the most recent maxPostmortems resolutions, each
// with a participant-restricted tail of at most postmortemTailCap events.
const (
	maxPostmortems    = 128
	postmortemTailCap = 64
)

// Resolution is one detector decision decoded from the control ring.
type Resolution struct {
	Time       time.Time `json:"time"`
	Activation int       `json:"activation"` // detector activation seq
	// Kind is "victim", "reposition" or "salvage" (Kind.String of the
	// record kind).
	Kind string `json:"kind"`
	Txn  int64  `json:"txn"` // the victim, salvaged txn, or TDR-2 junction
	// Resource is the repositioned queue (TDR-2 only).
	Resource string `json:"resource,omitempty"`

	cycle []int // indexes of the KindCycleEdge records emitted after the head
}

// PostmortemEvent is one journal record rendered for a postmortem.
type PostmortemEvent struct {
	Time     time.Time `json:"time"`
	Txn      int64     `json:"txn"`
	Kind     string    `json:"kind"`
	Resource string    `json:"resource,omitempty"`
	Mode     string    `json:"mode,omitempty"`
	// WaitNs is the blocked time a grant record carries (grant events
	// only; zero for an immediate grant).
	WaitNs uint64 `json:"wait_ns,omitempty"`
	// Depth is the queue depth at enqueue (block events only).
	Depth uint64 `json:"depth,omitempty"`
	// Tag is the application op tag attached (op-tag events only).
	Tag uint64 `json:"op_tag,omitempty"`
}

// PostmortemEdge is one edge of the resolved cycle with the journal
// evidence of its formation.
type PostmortemEdge struct {
	From     int64  `json:"from"`
	To       int64  `json:"to"`
	Resource string `json:"resource"`
	// Mode is the W edge's blocked mode; "NL" marks an H (holder) edge.
	Mode string `json:"mode"`
	// Evidence lists the journal events that formed the edge — the
	// grants and blocks of its two endpoints on its resource, oldest
	// first. Empty when the relevant records have already been
	// overwritten in the ring.
	Evidence []PostmortemEvent `json:"evidence"`
}

// Postmortem is the report for one resolved deadlock.
type Postmortem struct {
	Time       time.Time `json:"time"`
	Activation int       `json:"activation"` // detector activation seq that resolved it
	// TDR2 reports how the cycle was resolved: a queue repositioning
	// (true, nobody aborted) or a victim abort.
	TDR2   bool  `json:"tdr2"`
	Victim int64 `json:"victim"` // the aborted victim, or the TDR-2 junction
	// Resource is the repositioned queue (TDR-2 only).
	Resource string `json:"resource,omitempty"`
	// Cycle is the resolved cycle's edge list in cycle order (each edge's
	// To is the next edge's From; the last closes back to the first),
	// each edge carrying the journal evidence of its formation.
	Cycle []PostmortemEdge `json:"cycle"`
	// Tail is the merged journal tail restricted to the cycle's
	// participants — the graph's evolution into the deadlock, oldest
	// first (bounded; oldest events may have been overwritten).
	Tail []PostmortemEvent `json:"tail"`
	// OpTags maps cycle participants to their application op tags
	// (Txn.SetTag / wire tag=), when the tag records survived in the
	// ring — the cross-process handle naming the operations that
	// deadlocked each other.
	OpTags map[int64]uint64 `json:"op_tags,omitempty"`
}

// Resolutions decodes the detector's decisions — victims, repositions
// and salvages, in the order the activations made them — from records
// in snapshot order (Journal.Snapshot, a decoded dump, or the control
// ring alone). A victim or reposition is returned only with a closed
// cycle behind it: each edge's To (Arg) is the next edge's From (Txn),
// the last returning to the first. A proper prefix of a simple cycle
// never closes, so a group caught mid-emission fails that test like one
// whose head was overwritten; incomplete counts the groups skipped.
func Resolutions(recs []journal.Record) (out []Resolution, incomplete int) {
	var cur *Resolution // the group being collected; Kind "" when its head is lost
	flush := func() {
		if cur == nil {
			return
		}
		closed := cur.Kind != "" && len(cur.cycle) > 0
		for i, e := range cur.cycle {
			next := cur.cycle[(i+1)%len(cur.cycle)]
			closed = closed && int64(recs[e].Arg) == recs[next].Txn
		}
		if closed {
			out = append(out, *cur)
		} else {
			incomplete++
		}
		cur = nil
	}
	head := func(r *journal.Record) *Resolution {
		return &Resolution{Time: r.Time(), Activation: int(r.Aux), Kind: r.Kind.String(), Txn: r.Txn, Resource: r.Resource()}
	}
	for i := range recs {
		switch r := &recs[i]; r.Kind {
		case journal.KindVictim, journal.KindReposition:
			flush()
			cur = head(r)
		case journal.KindCycleEdge:
			if cur == nil {
				cur = &Resolution{}
			}
			cur.cycle = append(cur.cycle, i)
		case journal.KindSalvage:
			flush()
			out = append(out, *head(r))
		case journal.KindDetect:
			flush()
		}
	}
	flush()
	return out, incomplete
}

// pmEvent renders one journal record as a postmortem event.
func pmEvent(r *journal.Record) PostmortemEvent {
	ev := PostmortemEvent{Time: r.Time(), Txn: r.Txn, Kind: r.Kind.String(), Resource: r.Resource()}
	if r.Mode != 0 {
		ev.Mode = r.ModeString()
	}
	switch r.Kind {
	case journal.KindGrant:
		ev.WaitNs = r.Arg
	case journal.KindBlock:
		ev.Depth = r.Arg
	case journal.KindOpTag:
		ev.Tag = r.Arg
	}
	return ev
}

// Postmortems reconstructs, for the most recent 128 resolutions the
// detector acted on, how the H/W-TWBG evolved into the resolved cycle:
// every cycle edge (the ECR evidence the detector acted on) paired with
// the grants and blocks that formed it, plus the participants' merged
// event tail and op tags. recs must be in snapshot order
// (Journal.Snapshot or a decoded dump). The records are indexed in one
// pass; each postmortem then costs what it renders. incomplete is as in
// Resolutions.
func Postmortems(recs []journal.Record) (pms []Postmortem, incomplete int) {
	all, incomplete := Resolutions(recs)
	acted := all[:0]
	for _, r := range all {
		if len(r.cycle) > 0 {
			acted = append(acted, r)
		}
	}
	acted = acted[max(0, len(acted)-maxPostmortems):]
	participants := map[int64]bool{}
	for _, r := range acted {
		for _, e := range r.cycle {
			participants[recs[e].Txn] = true
		}
	}

	// The one pass: participants' record indexes (ascending, so in
	// snapshot order) by (resource hash, txn) for edge evidence — the
	// full 64-bit hash, not the display prefix — by txn for the tail,
	// and their op-tag records.
	type resTxn struct {
		rhash uint64
		txn   int64
	}
	evidence, byTxn, tags := map[resTxn][]int{}, map[int64][]int{}, map[int64][]int{}
	for i := range recs {
		r := &recs[i]
		if !participants[r.Txn] {
			continue
		}
		switch r.Kind {
		case journal.KindGrant, journal.KindBlock, journal.KindRequest:
			evidence[resTxn{r.RHash, r.Txn}] = append(evidence[resTxn{r.RHash, r.Txn}], i)
		case journal.KindOpTag:
			tags[r.Txn] = append(tags[r.Txn], i)
		case journal.KindBegin, journal.KindAbort, journal.KindCommit: // tail only
		default:
			continue
		}
		byTxn[r.Txn] = append(byTxn[r.Txn], i)
	}
	// upTo trims an index list to the records stamped no later than
	// cutoff. Snapshot order is timestamp order, so the list is cut.
	upTo := func(list []int, cutoff int64) []int {
		return list[:sort.Search(len(list), func(i int) bool { return recs[list[i]].TS > cutoff })]
	}

	pms = make([]Postmortem, len(acted))
	for k, r := range acted {
		pm := Postmortem{Time: r.Time, Activation: r.Activation, TDR2: r.Kind == journal.KindReposition.String(), Victim: r.Txn, Resource: r.Resource}
		// Only events up to the resolving activation belong in the story;
		// the detector's own records for it carry the same stamp — the
		// instant it began to act — so what it caused, and any later
		// traffic already racing in, is cut off.
		cutoff := r.Time.UnixNano()
		var tail []int
		for _, ei := range r.cycle {
			e := &recs[ei]
			from, to := e.Txn, int64(e.Arg)
			edge := PostmortemEdge{From: from, To: to, Resource: e.Resource(), Mode: e.ModeString()}
			ev := slices.Concat(upTo(evidence[resTxn{e.RHash, from}], cutoff), upTo(evidence[resTxn{e.RHash, to}], cutoff))
			slices.Sort(ev)
			for _, i := range ev {
				edge.Evidence = append(edge.Evidence, pmEvent(&recs[i]))
			}
			pm.Cycle = append(pm.Cycle, edge)

			// Every cycle vertex is exactly one edge's From, and no
			// participant can contribute more than its own last
			// postmortemTailCap events to the merged tail.
			l := upTo(byTxn[from], cutoff)
			tail = append(tail, l[max(0, len(l)-postmortemTailCap):]...)
			if t := upTo(tags[from], cutoff); len(t) > 0 {
				if pm.OpTags == nil {
					pm.OpTags = make(map[int64]uint64)
				}
				pm.OpTags[from] = recs[t[len(t)-1]].Arg
			}
		}
		slices.Sort(tail)
		for _, i := range tail[max(0, len(tail)-postmortemTailCap):] {
			pm.Tail = append(pm.Tail, pmEvent(&recs[i]))
		}
		pms[k] = pm
	}
	return pms, incomplete
}
