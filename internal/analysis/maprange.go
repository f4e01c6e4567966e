package analysis

import (
	"go/ast"
	"go/types"
)

// NondeterministicRange guards every place where Go's randomized map
// iteration order could leak into observable behavior: wire replies,
// DOT dumps, journal views, victim choices. The detector's whole
// determinism story (differential STW-vs-snapshot testing, byte-
// identical reruns) rests on id-sorted iteration, so a `for range` over
// a map is flagged when its body
//
//   - writes output (fmt.Fprint*, or any Write* method call), or
//   - appends to a slice declared outside the loop that is never
//     passed to a sort.*/slices.Sort* call in the same function.
//
// Collecting map keys into a slice and sorting it is the blessed
// pattern and passes; so does writing into another map or folding into
// scalars, both of which are order-insensitive. Calls to closures
// declared earlier in the same function are scanned one level deep, so
// hiding the append inside a helper literal does not dodge the rule.
//
// Sortedness is established package-wide, not per function: a field
// appended under a map range is fine when any function in the package
// sorts that field of that type (the CopyShard/FinishShard split, where
// sorting deliberately runs outside the shard mutex), and passing the
// accumulator to a package function that sorts its parameter counts as
// sorting it (topoSort-style helpers), including through one level of
// delegation.
var NondeterministicRange = &Analyzer{
	Name: "maprange",
	Doc:  "map iteration must not feed output or unsorted slices; sort first",
	Run:  runNondeterministicRange,
}

func runNondeterministicRange(p *Pass) {
	sortedFields := packageSortedFields(p)
	sorters := packageSorters(p)
	funcDecls(p, func(fd *ast.FuncDecl) {
		sorted := sortedObjects(p, fd, sorters)
		lits := localClosures(p, fd)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			loop, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := p.Info.Types[loop.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			scanMapRangeBody(p, loop, loop.Body, sorted, sortedFields, lits, map[*ast.FuncLit]bool{})
			return true
		})
	})
}

// isSortCall matches the sort.*/slices.Sort* family by qualified name.
func isSortCall(name string) bool {
	switch name {
	case "sort.Slice", "sort.SliceStable", "sort.Sort", "sort.Stable",
		"sort.Strings", "sort.Ints", "sort.Float64s",
		"slices.Sort", "slices.SortFunc", "slices.SortStableFunc":
		return true
	}
	return false
}

// sortedObjects collects the variables whose order is re-established in
// this function: passed to a sort.*/slices.Sort* call, or to a package
// function known to sort that parameter (see packageSorters).
func sortedObjects(p *Pass, fd *ast.FuncDecl, sorters map[types.Object]map[int]bool) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		if isSortCall(calleeName(p.Info, call)) {
			if obj := rootObject(p.Info, call.Args[0]); obj != nil {
				out[obj] = true
			}
			return true
		}
		if idxs := sorters[callObject(p.Info, call)]; idxs != nil {
			for i := range call.Args {
				if idxs[i] {
					if obj := rootObject(p.Info, call.Args[i]); obj != nil {
						out[obj] = true
					}
				}
			}
		}
		return true
	})
	return out
}

// callObject resolves the called function or method to its object.
func callObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// packageSorters finds every function in the package that sorts one of
// its slice parameters — directly, or by handing it to another sorter —
// mapping the function object to the sorted parameter indexes. The
// delegation chain is followed to a fixpoint.
func packageSorters(p *Pass) map[types.Object]map[int]bool {
	out := map[types.Object]map[int]bool{}
	paramIdx := func(fd *ast.FuncDecl, obj types.Object) int {
		if fd.Type.Params == nil || obj == nil {
			return -1
		}
		i := 0
		for _, f := range fd.Type.Params.List {
			for _, id := range f.Names {
				if p.Info.Defs[id] == obj {
					return i
				}
				i++
			}
		}
		return -1
	}
	mark := func(fd *ast.FuncDecl, idx int) bool {
		obj := p.Info.Defs[fd.Name]
		if obj == nil || idx < 0 {
			return false
		}
		if out[obj] == nil {
			out[obj] = map[int]bool{}
		}
		if out[obj][idx] {
			return false
		}
		out[obj][idx] = true
		return true
	}
	for changed := true; changed; {
		changed = false
		funcDecls(p, func(fd *ast.FuncDecl) {
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				if isSortCall(calleeName(p.Info, call)) {
					if mark(fd, paramIdx(fd, rootObject(p.Info, call.Args[0]))) {
						changed = true
					}
					return true
				}
				if idxs := out[callObject(p.Info, call)]; idxs != nil {
					for i := range call.Args {
						if idxs[i] {
							if mark(fd, paramIdx(fd, rootObject(p.Info, call.Args[i]))) {
								changed = true
							}
						}
					}
				}
				return true
			})
		})
	}
	return out
}

// packageSortedFields collects "Type.field" pairs sorted anywhere in
// the package: an append to such a field under a map range is ordered
// by the time any consumer iterates it, even when the sort lives in a
// different function (run outside the mutex on purpose).
func packageSortedFields(p *Pass) map[string]bool {
	out := map[string]bool{}
	funcDecls(p, func(fd *ast.FuncDecl) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 || !isSortCall(calleeName(p.Info, call)) {
				return true
			}
			if key := fieldKey(p.Info, call.Args[0]); key != "" {
				out[key] = true
			}
			return true
		})
	})
	return out
}

// fieldKey renders expression `x.f` as "TypeOfX.f", or "".
func fieldKey(info *types.Info, e ast.Expr) string {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	tv, ok := info.Types[sel.X]
	if !ok {
		return ""
	}
	n := namedType(tv.Type)
	if n == nil {
		return ""
	}
	return n.Obj().Name() + "." + sel.Sel.Name
}

// localClosures maps named function literals (`app := func(...) {...}`)
// to their bodies so range-body scans can follow one call level.
func localClosures(p *Pass, fd *ast.FuncDecl) map[types.Object]*ast.FuncLit {
	out := map[types.Object]*ast.FuncLit{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		lit, ok := as.Rhs[0].(*ast.FuncLit)
		if !ok {
			return true
		}
		if obj := p.Info.Defs[id]; obj != nil {
			out[obj] = lit
		} else if obj := p.Info.Uses[id]; obj != nil {
			out[obj] = lit
		}
		return true
	})
	return out
}

// scanMapRangeBody reports order-sensitive operations in one map-range
// body (or a closure it calls).
func scanMapRangeBody(p *Pass, loop *ast.RangeStmt, body ast.Node, sorted map[types.Object]bool, sortedFields map[string]bool, lits map[types.Object]*ast.FuncLit, seen map[*ast.FuncLit]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if name := calleeName(p.Info, n); name == "fmt.Fprint" || name == "fmt.Fprintf" || name == "fmt.Fprintln" {
				p.Reportf(n.Pos(), "%s inside map iteration: output order is randomized; iterate sorted keys instead", name)
				return true
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if s, ok := p.Info.Selections[sel]; ok && s.Kind() == types.MethodVal && isWriteMethod(sel.Sel.Name) {
					p.Reportf(n.Pos(), "%s call inside map iteration: output order is randomized; iterate sorted keys instead", sel.Sel.Name)
					return true
				}
			}
			if id, ok := n.Fun.(*ast.Ident); ok {
				if lit := lits[p.Info.Uses[id]]; lit != nil && !seen[lit] {
					seen[lit] = true
					scanMapRangeBody(p, loop, lit.Body, sorted, sortedFields, lits, seen)
				}
			}
		case *ast.AssignStmt:
			checkAppend(p, loop, n, sorted, sortedFields)
		}
		return true
	})
}

// isWriteMethod matches the io.Writer / strings.Builder / bufio.Writer
// output family.
func isWriteMethod(name string) bool {
	switch name {
	case "Write", "WriteString", "WriteByte", "WriteRune", "WriteTo":
		return true
	}
	return false
}

// checkAppend flags `x = append(x, ...)` when x is declared outside the
// map range and never sorted — in this function (sorted objects) or
// anywhere in the package, for a field destination (sortedFields).
func checkAppend(p *Pass, loop *ast.RangeStmt, as *ast.AssignStmt, sorted map[types.Object]bool, sortedFields map[string]bool) {
	for i, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok {
			continue
		}
		if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" || p.Info.Uses[id] != nil && p.Info.Uses[id].Pkg() != nil {
			continue
		}
		if i >= len(as.Lhs) {
			continue
		}
		if key := fieldKey(p.Info, as.Lhs[i]); key != "" && sortedFields[key] {
			continue
		}
		obj := rootObject(p.Info, as.Lhs[i])
		if obj == nil || sorted[obj] {
			continue
		}
		if obj.Pos() > loop.Pos() && obj.Pos() < loop.End() {
			continue // accumulator lives inside the loop; order cannot escape
		}
		p.Reportf(as.Pos(), "append to %s inside map iteration without a later sort: element order is randomized", obj.Name())
	}
}

// rootObject resolves the base identifier of x, x.f, x[i] etc.
func rootObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			if obj := info.Uses[v]; obj != nil {
				return obj
			}
			return info.Defs[v]
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			return nil
		}
	}
}
