// Package granularity layers the multiple granularity locking protocol
// over the public hwtwbg lock manager: define a hierarchy (or a general
// DAG, e.g. files reachable both from the database and from an index)
// once, then lock nodes in any of the five modes; the required intention
// locks on ancestors are acquired automatically, root first.
//
// Because hwtwbg.Txn.Lock blocks until granted, a multi-step acquisition
// here simply blocks at the contended ancestor; if the transaction is
// chosen as a deadlock victim anywhere along the path, Lock returns
// hwtwbg.ErrAborted and the whole transaction is gone (strict 2PL), so
// callers retry exactly as they would for a flat lock.
//
// The paper's Section 2 claims its model "integrates without changes
// into a system that supports a resource hierarchy"; this package is
// that integration, and the only one: deadlocks that form through
// intention locks alone are found and resolved by the manager's
// detector unchanged.
package granularity

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"hwtwbg"
)

// Errors reported by the package.
var (
	ErrUnknownNode   = errors.New("granularity: unknown node")
	ErrDuplicateNode = errors.New("granularity: node already defined")
	ErrNoParent      = errors.New("granularity: parent not defined")
)

// Intention returns the intention mode required on every proper
// ancestor of a node locked in mode m: IS for read-side modes (IS, S)
// and IX for write-side modes (IX, SIX, X).
func Intention(m hwtwbg.Mode) hwtwbg.Mode {
	switch m {
	case hwtwbg.IS, hwtwbg.S:
		return hwtwbg.IS
	default:
		return hwtwbg.IX
	}
}

// Graph is a granularity graph: a forest when every node has one
// parent, a DAG when nodes are added with several. It must be fully
// built before use and is immutable (and therefore goroutine-safe)
// afterwards.
type Graph struct {
	parents map[hwtwbg.ResourceID][]hwtwbg.ResourceID
	sealed  atomic.Bool
}

// New returns an empty granularity graph.
func New() *Graph {
	return &Graph{parents: make(map[hwtwbg.ResourceID][]hwtwbg.ResourceID)}
}

// AddRoot defines a top-level resource.
func (g *Graph) AddRoot(id hwtwbg.ResourceID) error {
	return g.add(id, nil)
}

// Add defines a resource under one or more existing parents.
func (g *Graph) Add(id hwtwbg.ResourceID, parents ...hwtwbg.ResourceID) error {
	if len(parents) == 0 {
		return fmt.Errorf("granularity: node %s needs at least one parent (use AddRoot)", id)
	}
	return g.add(id, parents)
}

func (g *Graph) add(id hwtwbg.ResourceID, parents []hwtwbg.ResourceID) error {
	if g.sealed.Load() {
		return errors.New("granularity: graph is sealed (a transaction already used it)")
	}
	if _, ok := g.parents[id]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicateNode, id)
	}
	for _, p := range parents {
		if _, ok := g.parents[p]; !ok {
			return fmt.Errorf("%w: %s", ErrNoParent, p)
		}
	}
	g.parents[id] = append([]hwtwbg.ResourceID(nil), parents...)
	return nil
}

// Contains reports whether id is defined.
func (g *Graph) Contains(id hwtwbg.ResourceID) bool {
	_, ok := g.parents[id]
	return ok
}

// Lock acquires mode on node id for t, taking the protocol's intention
// locks along the way: IS on one root path for read-side modes, IX on
// every ancestor (all paths) for write-side modes, ancestors before
// descendants. Steps the transaction's held modes already cover are
// skipped, so upgrades work naturally.
func (g *Graph) Lock(ctx context.Context, t *hwtwbg.Txn, id hwtwbg.ResourceID, mode hwtwbg.Mode) error {
	g.sealed.Store(true)
	if _, ok := g.parents[id]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, id)
	}
	intent := Intention(mode)
	var chain []hwtwbg.ResourceID
	if intent == hwtwbg.IS {
		chain = g.readPath(id)
	} else {
		chain = g.ancestors(id)
	}
	for _, rid := range chain {
		if hwtwbg.Conv(t.Mode(rid), intent) == t.Mode(rid) {
			continue // already covered
		}
		if err := t.Lock(ctx, rid, intent); err != nil {
			return err
		}
	}
	if hwtwbg.Conv(t.Mode(id), mode) == t.Mode(id) {
		return nil
	}
	return t.Lock(ctx, id, mode)
}

// readPath returns one root-to-id chain (excluding id), following the
// first-listed parent at each step.
func (g *Graph) readPath(id hwtwbg.ResourceID) []hwtwbg.ResourceID {
	var rev []hwtwbg.ResourceID
	cur := id
	for {
		ps := g.parents[cur]
		if len(ps) == 0 {
			break
		}
		rev = append(rev, ps[0])
		cur = ps[0]
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// ancestors returns every node from which id is reachable, ancestors
// before descendants (longest root distance, ties by id) so write-side
// acquisition is deterministic and top-down.
func (g *Graph) ancestors(id hwtwbg.ResourceID) []hwtwbg.ResourceID {
	seen := map[hwtwbg.ResourceID]bool{}
	var collect func(n hwtwbg.ResourceID)
	collect = func(n hwtwbg.ResourceID) {
		for _, p := range g.parents[n] {
			if !seen[p] {
				seen[p] = true
				collect(p)
			}
		}
	}
	collect(id)
	out := make([]hwtwbg.ResourceID, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool {
		di, dj := g.depth(out[i]), g.depth(out[j])
		if di != dj {
			return di < dj
		}
		return out[i] < out[j]
	})
	return out
}

func (g *Graph) depth(n hwtwbg.ResourceID) int {
	best := 0
	for _, p := range g.parents[n] {
		if d := g.depth(p) + 1; d > best {
			best = d
		}
	}
	return best
}
