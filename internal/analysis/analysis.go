// Package analysis is the stdlib-only static-analysis framework behind
// cmd/hwlint. It loads and type-checks the module's packages with
// go/parser + go/types (export data comes from `go list -export`, so no
// golang.org/x/tools dependency is needed, matching the repo's
// zero-dependency ethos) and runs a small set of analyzers that
// mechanize the project's concurrency and performance discipline:
//
//	lockorder     shard mutexes accumulated in a loop must be taken in
//	              ascending index order (range over the shard slice)
//	callbacklock  no journal emission, histogram observation or
//	              blocking channel send between a shard Lock and its
//	              Unlock — directly or through any reachable module
//	              function
//	maprange      no wire/DOT output or unsorted slice accumulation
//	              from `for range` over a map
//	atomics       fields of the padded metric structs are touched only
//	              through their own (atomic) methods
//	allocbudget   //hwlint:hotpath allocs=N functions stay within N
//	              reachable allocation sites, counted over the whole
//	              call tree with recursion widened conservatively
//
// The interprocedural rules share one module-wide index (Module): a
// callgraph over static calls plus method-set devirtualized interface
// calls, with per-function summaries of blocking effects, allocation
// sites and parameter escapes propagated to a fixpoint.
//
// A finding that is intentional is suppressed with an annotation that
// must carry a reason:
//
//	//hwlint:allow <rule> -- <reason>
//
// placed on the offending line, on the line above it, or in the doc
// comment of the enclosing function (which then covers the whole
// function). Annotations without a reason, and annotations that no
// longer suppress anything, are themselves reported — the allowlist can
// only hold audited, explained exceptions.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Diagnostic is one finding: a rule violation at a position.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the finding in the usual file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Rule, d.Message)
}

// Analyzer is one named check. Per-package analyzers run once per
// loaded package; Module analyzers run once over the whole loaded set
// (Pass.Pkg/Files/Info are nil for those — they work through Pass.Mod).
type Analyzer struct {
	Name   string
	Doc    string
	Run    func(*Pass)
	Module bool
}

// All is the analyzer set cmd/hwlint runs.
var All = []*Analyzer{LockOrder, CallbackUnderLock, NondeterministicRange, AtomicsOnly, AllocBudget}

// Pass carries one package's parsed and type-checked state to an
// analyzer, plus the sink diagnostics are reported into. Mod is the
// module-wide index (callgraph + summaries) shared by every pass.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	Mod   *Module

	rule   string
	diags  *[]Diagnostic
	allows *allowTable
}

// Reportf records a finding for the running analyzer at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Rule:    p.rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// Allowed reports whether an //hwlint:allow annotation for rule covers
// pos, marking the entry used. Analyzers that prune work behind an
// allow (allocbudget skips a whole call edge) consult this directly so
// the annotation still registers as load-bearing in the unused-allow
// audit.
func (p *Pass) Allowed(rule string, pos token.Pos) bool {
	return p.allows.hit(rule, p.Fset.Position(pos))
}

// allowEntry is one parsed //hwlint:allow annotation: it suppresses
// diagnostics of Rule on lines [From, To] of File.
type allowEntry struct {
	Rule     string
	Reason   string
	File     string
	From, To int
	Pos      token.Position
	used     bool
}

const allowPrefix = "//hwlint:allow"

// collectAllows parses the //hwlint:allow annotations of a package. An
// annotation inside a function's doc comment covers the whole function;
// any other covers its own line and the next (so it can sit above the
// statement it excuses or at the end of it).
func collectAllows(fset *token.FileSet, files []*ast.File, sink *[]Diagnostic) []*allowEntry {
	var out []*allowEntry
	for _, f := range files {
		// Map doc-comment positions to the span of their function.
		type span struct{ from, to int }
		docSpan := map[*ast.CommentGroup]span{}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			docSpan[fd.Doc] = span{fset.Position(fd.Pos()).Line, fset.Position(fd.End()).Line}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, allowPrefix))
				rule, reason, found := strings.Cut(rest, "--")
				rule, reason = strings.TrimSpace(rule), strings.TrimSpace(reason)
				if rule == "" || !found || reason == "" {
					*sink = append(*sink, Diagnostic{
						Pos:  pos,
						Rule: "allowlist",
						Message: fmt.Sprintf("malformed annotation %q: want %s <rule> -- <reason>",
							c.Text, allowPrefix),
					})
					continue
				}
				e := &allowEntry{Rule: rule, Reason: reason, File: pos.Filename, From: pos.Line, To: pos.Line + 1, Pos: pos}
				if s, ok := docSpan[cg]; ok {
					e.From, e.To = s.from, s.to
				}
				out = append(out, e)
			}
		}
	}
	return out
}

// allowTable is the module-wide allowlist, shared (and locked) across
// the concurrently running per-package passes.
type allowTable struct {
	mu      sync.Mutex
	entries []*allowEntry
}

// hit finds an entry covering (rule, pos), marking it used.
func (t *allowTable) hit(rule string, pos token.Position) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range t.entries {
		if e.Rule == rule && e.File == pos.Filename && pos.Line >= e.From && pos.Line <= e.To {
			e.used = true
			return true
		}
	}
	return false
}

// Run builds the module index (callgraph + summaries), executes the
// per-package analyzers over every package on a worker pool, then the
// module-level analyzers once, applies the allowlist, and returns the
// surviving diagnostics sorted by position. Unused and malformed allow
// annotations are reported as findings of the "allowlist" pseudo-rule.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var all []Diagnostic
	at := &allowTable{}
	for _, pkg := range pkgs {
		at.entries = append(at.entries, collectAllows(pkg.Fset, pkg.Files, &all)...)
	}
	mod := BuildModule(pkgs)

	var perPkg, modWide []*Analyzer
	for _, a := range analyzers {
		if a.Module {
			modWide = append(modWide, a)
		} else {
			perPkg = append(perPkg, a)
		}
	}

	// Per-package analyzers are independent of each other: fan the
	// packages out over a bounded pool and keep the results in package
	// order (the final position sort makes the output deterministic
	// regardless).
	results := make([][]Diagnostic, len(pkgs))
	sem := make(chan struct{}, max(1, runtime.NumCPU()))
	var wg sync.WaitGroup
	for i, pkg := range pkgs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, pkg *Package) {
			defer wg.Done()
			defer func() { <-sem }()
			var diags []Diagnostic
			for _, a := range perPkg {
				p := &Pass{Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types, Info: pkg.Info, Mod: mod, rule: a.Name, diags: &diags, allows: at}
				a.Run(p)
			}
			results[i] = diags
		}(i, pkg)
	}
	wg.Wait()

	var diags []Diagnostic
	for _, r := range results {
		diags = append(diags, r...)
	}
	if len(pkgs) > 0 {
		for _, a := range modWide {
			p := &Pass{Fset: pkgs[0].Fset, Mod: mod, rule: a.Name, diags: &diags, allows: at}
			a.Run(p)
		}
	}

	for _, d := range diags {
		if d.Rule != "allowlist" && at.hit(d.Rule, d.Pos) {
			continue
		}
		all = append(all, d)
	}
	for _, e := range at.entries {
		if !e.used {
			all = append(all, Diagnostic{
				Pos:     e.Pos,
				Rule:    "allowlist",
				Message: fmt.Sprintf("annotation suppresses nothing: %s -- %s", e.Rule, e.Reason),
			})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i].Pos, all[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return all
}
