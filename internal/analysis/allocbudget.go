package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strconv"
	"strings"
)

// AllocBudget enforces //hwlint:hotpath allocs=N annotations: a
// function so marked may reach at most N distinct heap-allocation
// sites, counted over everything it (transitively) calls through the
// module callgraph. The 6/1/0 allocs/op numbers the runtime pins hold
// (the root package's TestAllocationPins) become a compile-time
// property instead of a test-only one: a new make/append/escape/string
// concatenation/external call on the hot path fails lint, naming the site and the call chain
// that reaches it.
//
// Counting is by site, not by execution: a site inside a loop counts
// once (dynamic growth stays the runtime pins' job), shared sites reached
// through several paths count once, and recursion adds nothing beyond
// the cycle's own sites. An unresolved external call (fmt, sort with
// closures, anything outside the loaded source set that is not in the
// audited intrinsic table) is unbounded and always a violation.
//
// A cold branch inside a budgeted function — the context-cancellation
// aborts, say — is excused with //hwlint:allow allocbudget on the call
// line, which prunes that whole call edge from the walk; a single
// amortized site (a freelist's miss-path literal) is excused the same
// way on its own line. Both remain audited: an allow that prunes
// nothing is reported.
var AllocBudget = &Analyzer{
	Name:   "allocbudget",
	Doc:    "//hwlint:hotpath allocs=N functions stay within their statically counted allocation budget",
	Run:    runAllocBudget,
	Module: true,
}

const hotpathPrefix = "//hwlint:hotpath"

// hotpathBudget parses a function's doc comment for the annotation,
// returning (budget, the comment, true) when present.
func hotpathBudget(fd *ast.FuncDecl) (int, *ast.Comment, bool) {
	if fd.Doc == nil {
		return 0, nil, false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(c.Text, hotpathPrefix) {
			rest := strings.TrimSpace(strings.TrimPrefix(c.Text, hotpathPrefix))
			if v, ok := strings.CutPrefix(rest, "allocs="); ok {
				if n, err := strconv.Atoi(strings.TrimSpace(v)); err == nil && n >= 0 {
					return n, c, true
				}
			}
			return 0, c, false // malformed: reported by the caller
		}
	}
	return 0, nil, false
}

// reachedSite is one allocation site found by the budget walk, with the
// call chain that reaches it.
type reachedSite struct {
	site allocSite
	path string
}

func runAllocBudget(p *Pass) {
	mod := p.Mod
	for _, pkg := range mod.Pkgs {
		path := pkg.Types.Path()
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				budget, comment, ok := hotpathBudget(fd)
				if comment != nil && !ok {
					p.Reportf(comment.Pos(), "malformed annotation %q: want %s allocs=<n>", comment.Text, hotpathPrefix)
					continue
				}
				if comment == nil {
					continue
				}
				fn := mod.fns[declFQN(path, fd)]
				if fn == nil {
					continue
				}
				checkBudget(p, fn, budget)
			}
		}
	}
}

// checkBudget walks fn's reachable call edges collecting allocation
// sites, dedup'd by position. Edges and sites covered by an
// //hwlint:allow allocbudget annotation are pruned (and the annotation
// counted as used).
func checkBudget(p *Pass, root *Fn, budget int) {
	sites := map[token.Pos]reachedSite{}
	seen := map[*Fn]bool{}
	var visit func(fn *Fn, path string)
	visit = func(fn *Fn, path string) {
		if seen[fn] {
			return
		}
		seen[fn] = true
		for _, s := range fn.allocs {
			if _, dup := sites[s.pos]; dup {
				continue
			}
			if p.Allowed("allocbudget", s.pos) {
				continue
			}
			sites[s.pos] = reachedSite{site: s, path: path}
		}
		for _, e := range fn.calls {
			if e.elided {
				// Optional-hook guard (if hook != nil): the budget holds
				// for the hook-free configuration the benchmarks measure.
				continue
			}
			if p.Allowed("allocbudget", e.pos) {
				continue
			}
			next := shortFQN(e.callee.FQN)
			if path != "" {
				next = path + " -> " + next
			}
			visit(e.callee, next)
		}
	}
	visit(root, "")

	ordered := make([]reachedSite, 0, len(sites))
	for _, s := range sites {
		ordered = append(ordered, s)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].site.unbounded != ordered[j].site.unbounded {
			return ordered[i].site.unbounded
		}
		return ordered[i].site.pos < ordered[j].site.pos
	})

	for _, s := range ordered {
		if s.site.unbounded {
			p.Reportf(root.Decl.Name.Pos(), "%s: hot path budget allocs=%d but allocations are statically unbounded: %s at %s%s",
				shortFQN(root.FQN), budget, s.site.desc, p.Fset.Position(s.site.pos), via(s.path))
			return
		}
	}
	if len(ordered) > budget {
		var b strings.Builder
		fmt.Fprintf(&b, "%s: hot path budget allocs=%d exceeded: %d reachable allocation sites", shortFQN(root.FQN), budget, len(ordered))
		for i, s := range ordered {
			if i == 6 {
				fmt.Fprintf(&b, "; and %d more", len(ordered)-i)
				break
			}
			fmt.Fprintf(&b, "; %s at %s%s", s.site.desc, p.Fset.Position(s.site.pos), via(s.path))
		}
		p.Reportf(root.Decl.Name.Pos(), "%s", b.String())
	}
}

func via(path string) string {
	if path == "" {
		return ""
	}
	return " (via " + path + ")"
}
