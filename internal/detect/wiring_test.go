package detect

import (
	"hwtwbg/internal/lock"
	"hwtwbg/internal/table"
)

// WireEdge is one TST waited-list entry, the view the tests take of the
// Step 1 wiring (Figure 5.1).
type WireEdge struct {
	Mode lock.Mode   // NL for H edges, the source's blocked mode for W edges
	To   table.TxnID // 0 marks the end of a queue
}

// Wiring runs Step 1 and returns the TST adjacency it builds: for each
// transaction the waited list in order (the W edge, if any, first). The
// walk state is reset, so calling Run afterwards is fine.
func (d *Detector) Wiring() map[table.TxnID][]WireEdge {
	d.step1()
	out := make(map[table.TxnID][]WireEdge, len(d.verts))
	for id, v := range d.verts {
		ws := make([]WireEdge, len(v.edges))
		for i, e := range v.edges {
			ws[i] = WireEdge{Mode: e.Mode, To: e.To}
		}
		out[id] = ws
	}
	return out
}
