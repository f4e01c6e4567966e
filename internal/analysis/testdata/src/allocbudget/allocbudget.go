// Package allocbudget is the fixture for the allocbudget analyzer:
// //hwlint:hotpath-annotated functions whose reachable allocation
// sites are counted through helpers, mutual recursion, devirtualized
// interface calls, and pruned by //hwlint:allow.
package allocbudget

import "fmt"

type thing struct {
	id int
}

var free []*thing

// withinBudget's one countable site is the freelist-miss literal; the
// budget holds exactly, so no finding.
//
//hwlint:hotpath allocs=1
func withinBudget(id int) *thing {
	if n := len(free); n > 0 {
		t := free[n-1]
		free = free[:n-1]
		t.id = id
		return t
	}
	return &thing{id: id}
}

// overBudget charges the same site against a zero budget.
//
//hwlint:hotpath allocs=0
func overBudget(id int) *thing { // want "hot path budget allocs=0 exceeded: 1 reachable allocation sites"
	return &thing{id: id}
}

// transitive reaches its helper's make through the callgraph.
//
//hwlint:hotpath allocs=0
func transitive(n int) []int { // want "via allocbudget.scratch"
	return scratch(n)
}

func scratch(n int) []int {
	return make([]int, n)
}

// pingPongA and pingPongB are mutually recursive: the cycle's one site
// counts once, not per unrolling.
//
//hwlint:hotpath allocs=0
func pingPongA(n int) []int { // want "allocs=0 exceeded: 1 reachable allocation sites"
	if n <= 0 {
		return nil
	}
	return pingPongB(n - 1)
}

func pingPongB(n int) []int {
	buf := make([]int, 1)
	if n <= 0 {
		return buf
	}
	return pingPongA(n - 1)
}

type sink interface{ put(n int) }

type heapSink struct{ keep []*int }

func (h *heapSink) put(n int) {
	p := new(int)
	*p = n
	h.keep = append(h.keep, p)
}

// drain's interface call devirtualizes to heapSink.put by method-set
// matching; its new() is charged against drain's budget.
//
//hwlint:hotpath allocs=0
func drain(s sink) { // want "via allocbudget.heapSink.put"
	s.put(1)
}

// format reaches fmt, which is outside the audited intrinsic table:
// unbounded regardless of how large the budget is.
//
//hwlint:hotpath allocs=5
func format(x int) string { // want "statically unbounded"
	return fmt.Sprintf("val %d", x)
}

// pooled's miss-path literal is excused (and audited) by the allow.
//
//hwlint:hotpath allocs=0
func pooled() *thing {
	if n := len(free); n > 0 {
		t := free[n-1]
		free = free[:n-1]
		return t
	}
	return &thing{} //hwlint:allow allocbudget -- freelist miss; recycled, amortized out of steady state
}

// coldPath prunes the whole abort-path call edge, fmt and all.
//
//hwlint:hotpath allocs=0
func coldPath(fail bool) error {
	if fail {
		return explain() //hwlint:allow allocbudget -- cold abort path, not benched
	}
	return nil
}

func explain() error {
	return fmt.Errorf("failed with %d pooled", len(free))
}

// joined builds its path at run time: the a + "/" + b chain is one
// concatenation, one site, against a zero budget.
//
//hwlint:hotpath allocs=0
func joined(a, b string) string { // want "allocs=0 exceeded: 1 reachable allocation sites; string concatenation allocates"
	return a + "/" + b
}

// suffixed concatenates twice, once through +=.
//
//hwlint:hotpath allocs=1
func suffixed(s string) string { // want "allocs=1 exceeded: 2 reachable allocation sites"
	s += "!"
	return s + "?"
}

const prefix = "kv:/"

// rooted's concatenation is folded by the compiler and costs nothing;
// its one charged site is the make.
//
//hwlint:hotpath allocs=0
func rooted(n int) (string, []int) { // want "allocs=0 exceeded: 1 reachable allocation sites; make at"
	return prefix + "root", make([]int, n)
}

//hwlint:hotpath allocs=lots // want "malformed annotation"
func typo() {}
