package analysis

// The interprocedural layer: a module-wide callgraph over every loaded
// package, with one summary per function declaration. Summaries carry
//
//   - held-lock effects: operations a function (or anything it calls)
//     may perform that must not run while a shard mutex is held —
//     histogram observations, journal emission, blocking
//     channel operations, sync waits, sleeps, and acquiring further
//     shard mutexes;
//   - allocation sites: every statement that can charge a heap
//     allocation, used by the allocbudget analyzer to verify
//     //hwlint:hotpath allocs=N annotations by reachability.
//
// The callgraph is static calls plus method-set devirtualization: a
// call through an interface fans out to every module type whose
// declared method-name set covers the interface's. That matching is by
// name, not by types.Implements — packages loaded from source and
// their dependencies imported from export data live in different
// go/types universes, so object identity is only reliable *within* a
// package; across packages everything is keyed by a package-path-
// qualified name string instead.
//
// Effects are propagated bottom-up to a fixpoint (a plain worklist
// iteration: the effect lattice is a finite union, so recursion — an
// SCC in the callgraph — simply converges to the cycle's joint
// summary). Allocation accounting is a reachable-site count: a site in
// a loop still counts once (dynamic growth stays the job of the runtime
// AllocsPerRun pins; the static gate catches new sites), and recursion
// adds no sites beyond the SCC's own.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Module is the whole-program index the interprocedural analyzers run
// against: every loaded package, every function declaration, and the
// computed summaries.
type Module struct {
	Pkgs []*Package

	fns map[string]*Fn // FQN -> declaration

	// typeMethods maps "pkgpath.TypeName" to the set of method names
	// declared on that type (either receiver form), used for
	// devirtualization.
	typeMethods map[string]map[string]bool
}

// Fn is one function declaration plus its computed summaries.
type Fn struct {
	FQN  string
	Pkg  *Package
	Decl *ast.FuncDecl

	calls  []callEdge
	allocs []allocSite

	// effects is the transitive held-lock effect summary, deduplicated
	// by description; populated by the fixpoint pass.
	effects []effect

	// paramEscapes[i] reports whether parameter i (0 = receiver for
	// methods) may escape: stored into a field, global, map, channel or
	// returned, or passed on to an escaping position. Used to decide
	// whether &local handed to this function heap-moves the local.
	paramEscapes []bool
}

// callEdge is one resolved call site.
type callEdge struct {
	pos    token.Pos
	callee *Fn
	devirt bool // candidate via interface method-name matching
	elided bool // inside an optional-hook nil guard: effects propagate, allocations do not
}

// effect is one held-lock effect with its provenance.
type effect struct {
	pos  token.Pos // the originating site
	desc string    // e.g. "journal.Ring.Emit", "blocking channel send"
	path string    // call chain from the summarized function, "" if local
}

// allocSite is one potential heap allocation.
type allocSite struct {
	pos       token.Pos
	desc      string
	unbounded bool // an unresolved external call: allocations unknown
}

// Effects returns fn's transitive held-lock effect summary (nil when fn
// is unknown).
func (m *Module) Effects(fn *Fn) []effect { return fn.effects }

// Fn resolves a *types.Func object to its module declaration, or nil.
func (m *Module) Fn(obj *types.Func) *Fn {
	if obj == nil {
		return nil
	}
	return m.fns[objFQN(obj)]
}

// objFQN renders a function object as its package-path-qualified name:
// "pkg/path.Func" or "pkg/path.Type.Method". The receiver's named type
// is unwrapped through one pointer so value and pointer methods
// collide, which is what the name-keyed lookup wants.
func objFQN(obj *types.Func) string {
	pkg := ""
	if obj.Pkg() != nil {
		pkg = obj.Pkg().Path()
	}
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		if n := namedType(sig.Recv().Type()); n != nil {
			return pkg + "." + n.Obj().Name() + "." + obj.Name()
		}
		return pkg + ".?." + obj.Name()
	}
	return pkg + "." + obj.Name()
}

// declFQN renders a declaration's name in the same form as objFQN.
func declFQN(pkgPath string, fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		t := fd.Recv.List[0].Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver
			t = idx.X
		}
		if id, ok := t.(*ast.Ident); ok {
			return pkgPath + "." + id.Name + "." + fd.Name.Name
		}
		return pkgPath + ".?." + fd.Name.Name
	}
	return pkgPath + "." + fd.Name.Name
}

// shortFQN trims the module-internal package path down to its last
// element for diagnostics ("hwtwbg/journal.Ring.Emit" -> "journal.Ring.Emit").
func shortFQN(fqn string) string {
	if i := strings.LastIndex(fqn, "/"); i >= 0 {
		return fqn[i+1:]
	}
	return fqn
}

// BuildModule indexes every function declaration of the loaded
// packages, resolves call edges (static + devirtualized), collects
// local summaries, and propagates effects and parameter escapes to a
// fixpoint.
func BuildModule(pkgs []*Package) *Module {
	m := &Module{Pkgs: pkgs, fns: map[string]*Fn{}, typeMethods: map[string]map[string]bool{}}
	for _, pkg := range pkgs {
		path := pkg.Types.Path()
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fqn := declFQN(path, fd)
				m.fns[fqn] = &Fn{FQN: fqn, Pkg: pkg, Decl: fd}
				if fd.Recv != nil {
					if i := strings.LastIndex(fqn, "."); i >= 0 {
						tname := fqn[:i]
						set := m.typeMethods[tname]
						if set == nil {
							set = map[string]bool{}
							m.typeMethods[tname] = set
						}
						set[fd.Name.Name] = true
					}
				}
			}
		}
	}
	// Escapes first: buildLocal consults paramEscapes to decide whether
	// an &local argument heap-moves, so the vectors must be at fixpoint
	// before any allocation site is charged.
	m.propagateEscapes()
	for _, fn := range m.fns {
		m.buildLocal(fn)
	}
	m.propagateEffects()
	return m
}

// candidates returns the module functions an interface method call may
// devirtualize to: every module type whose declared method-name set
// covers the interface's, matched by name. Types that satisfy the
// interface through embedding are missed (their promoted methods have
// no local declaration) — a documented under-approximation.
func (m *Module) candidates(iface *types.Interface, method string) []*Fn {
	var names []string
	for i := 0; i < iface.NumMethods(); i++ {
		names = append(names, iface.Method(i).Name())
	}
	var out []*Fn
	for tname, set := range m.typeMethods {
		covers := true
		for _, n := range names {
			if !set[n] {
				covers = false
				break
			}
		}
		if covers && set[method] {
			if fn := m.fns[tname+"."+method]; fn != nil {
				out = append(out, fn)
			}
		}
	}
	// The map range above yields candidates in random order; summaries
	// and diagnostics must not depend on it.
	sort.Slice(out, func(i, j int) bool { return out[i].FQN < out[j].FQN })
	return out
}

// resolveCall resolves one call expression against the module: the
// declared callee for a static call, devirtualization candidates for an
// interface method call. external is true when the callee lives outside
// the loaded source set (stdlib or export-data-only dependency);
// unknown is true when the callee cannot be named at all (function
// values, method expressions).
func (m *Module) resolveCall(pkg *Package, call *ast.CallExpr) (callees []*Fn, obj *types.Func, external, unknown bool) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		switch o := pkg.Info.Uses[fun].(type) {
		case *types.Func:
			obj = o
		case *types.Builtin, *types.TypeName:
			return nil, nil, false, false // builtins and conversions are handled by the collectors
		default:
			return nil, nil, false, true // a function value: target unknown
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
				cands := m.candidates(iface, fun.Sel.Name)
				o, _ := sel.Obj().(*types.Func)
				return cands, o, len(cands) == 0, false
			}
		}
		switch o := pkg.Info.Uses[fun.Sel].(type) {
		case *types.Func:
			obj = o
		case *types.TypeName:
			return nil, nil, false, false
		default:
			return nil, nil, false, true
		}
	default:
		// Conversions like `string(x)` with a type expression, or calls
		// of call results; the collectors look at those separately.
		if _, isType := pkg.Info.Types[call.Fun]; isType && pkg.Info.Types[call.Fun].IsType() {
			return nil, nil, false, false
		}
		return nil, nil, false, true
	}
	if fn := m.fns[objFQN(obj)]; fn != nil {
		return []*Fn{fn}, obj, false, false
	}
	return nil, obj, true, false
}

// intrinsicZero reports whether an external callee is known not to
// allocate (or to amortize its allocations away, like sync.Pool): the
// audited table backing the allocation model. Matching is by package
// path of the function or its receiver type.
func intrinsicZero(obj *types.Func) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	name := obj.Name()
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		switch path {
		case "sync", "sync/atomic", "context":
			// Mutex/RWMutex/WaitGroup/Pool/Once operations, atomic
			// types, context.Context accessors. Pool.Get's miss-path
			// New allocation amortizes out (documented caveat).
			return true
		case "time":
			// Duration arithmetic and formatting-free accessors.
			return name != "Format" && name != "String"
		}
		return false
	}
	switch path {
	case "math", "math/bits":
		return true // pure compute on machine words
	case "time":
		return name == "Now" || name == "Since" || name == "Duration"
	case "runtime":
		return name == "Gosched" || name == "KeepAlive"
	case "errors":
		return name == "Is" || name == "As" || name == "Unwrap"
	case "sort":
		// sort.Search and the Slice family sort in place; the closure
		// argument is charged separately as a FuncLit.
		return true
	case "slices":
		return strings.HasPrefix(name, "Sort") || name == "BinarySearch" || name == "Index" || name == "Contains"
	}
	return false
}

// blockingExternal classifies an external call that can block the
// calling goroutine, for the held-lock effect summary.
func blockingExternal(obj *types.Func) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	path, name := obj.Pkg().Path(), obj.Name()
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		if path == "sync" && name == "Wait" {
			if n := namedType(sig.Recv().Type()); n != nil {
				return "sync." + n.Obj().Name() + ".Wait"
			}
			return "sync.Wait"
		}
		return ""
	}
	if path == "time" && name == "Sleep" {
		return "time.Sleep"
	}
	return ""
}

// nilGuardedHook reports whether an if statement has the optional-hook
// shape `if x != nil { ... }` (or `x.f != nil`) with x of interface
// type: the optional-hook guard. Allocation accounting skips the
// guarded block — the budgets hold for the hook-free configuration the
// benchmarks measure; attaching a hook buys its own allocations
// knowingly. (Pointer-typed guards like the journal ring do NOT elide:
// journaling is part of the benched hot path.)
func nilGuardedHook(info *types.Info, s *ast.IfStmt) bool {
	bin, ok := s.Cond.(*ast.BinaryExpr)
	if !ok || bin.Op != token.NEQ {
		return false
	}
	operand := bin.X
	if id, ok := bin.Y.(*ast.Ident); !ok || id.Name != "nil" {
		if id, ok := bin.X.(*ast.Ident); ok && id.Name == "nil" {
			operand = bin.Y
		} else {
			return false
		}
	}
	tv, ok := info.Types[operand]
	if !ok {
		return false
	}
	_, isIface := tv.Type.Underlying().(*types.Interface)
	return isIface
}

// localCollector walks one function body gathering call edges, local
// effects and local allocation sites.
type localCollector struct {
	m  *Module
	fn *Fn
}

func (m *Module) buildLocal(fn *Fn) {
	c := &localCollector{m: m, fn: fn}
	c.walk(fn.Decl.Body, false)
}

// walk visits statements; elided is true inside an optional-hook guard
// (allocation charges are skipped there, effects still collected —
// hooks run rarely but a blocking hook under a mutex is still a bug).
func (c *localCollector) walk(n ast.Node, elided bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			// The goroutine body runs outside the caller's locks and
			// outside its allocation budget; the spawn itself is a cold
			// operation no hot path performs.
			return false
		case *ast.FuncLit:
			// Closure creation allocates (captures move to the heap);
			// the body executes when called, not here.
			if !elided {
				c.site(n.Pos(), "closure allocation", false)
			}
			return false
		case *ast.IfStmt:
			if nilGuardedHook(c.fn.Pkg.Info, n) {
				if n.Init != nil {
					c.walk(n.Init, elided)
				}
				c.walk(n.Body, true)
				if n.Else != nil {
					c.walk(n.Else, elided)
				}
				return false
			}
			return true
		case *ast.SelectStmt:
			hasDefault := false
			for _, cl := range n.Body.List {
				if cl.(*ast.CommClause).Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				c.effect(n.Pos(), "blocking select")
			}
			// Visit bodies; comm clauses of a defaulted select are
			// non-blocking by construction.
			for _, cl := range n.Body.List {
				for _, s := range cl.(*ast.CommClause).Body {
					c.walk(s, elided)
				}
			}
			return false
		case *ast.SendStmt:
			c.effect(n.Pos(), "blocking channel send")
			return true
		case *ast.UnaryExpr:
			switch n.Op {
			case token.ARROW:
				c.effect(n.Pos(), "blocking channel receive")
			case token.AND:
				if _, isLit := n.X.(*ast.CompositeLit); isLit && !elided {
					c.site(n.Pos(), "composite literal allocated on the heap", false)
				}
			}
			return true
		case *ast.CompositeLit:
			if !elided {
				c.compositeSite(n, c.fn.Pkg.Info)
			}
			return true
		case *ast.BinaryExpr:
			if n.Op != token.ADD || !c.concat(n) {
				return true
			}
			if !elided {
				c.site(n.Pos(), "string concatenation allocates", false)
			}
			// One runtime concatenation builds the whole a + b + c
			// chain: walk its operands, not the inner additions.
			for _, x := range concatOperands(c.fn.Pkg.Info, n, nil) {
				c.walk(x, elided)
			}
			return false
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && c.concat(n.Lhs[0]) && !elided {
				c.site(n.Pos(), "string concatenation allocates", false)
			}
			return true
		case *ast.CallExpr:
			c.call(n, elided)
			return true
		}
		return true
	})
}

// concat reports whether e is a string the program builds at run
// time: string-typed and not folded to a constant by the compiler.
func (c *localCollector) concat(e ast.Expr) bool {
	tv, ok := c.fn.Pkg.Info.Types[e]
	return ok && tv.Value == nil && tv.Type != nil && isString(tv.Type.Underlying())
}

// concatOperands appends the leaves of the string-addition chain e.
func concatOperands(info *types.Info, e ast.Expr, dst []ast.Expr) []ast.Expr {
	if b, ok := ast.Unparen(e).(*ast.BinaryExpr); ok && b.Op == token.ADD {
		if tv, ok := info.Types[b]; ok && tv.Value == nil {
			dst = concatOperands(info, b.X, dst)
			return concatOperands(info, b.Y, dst)
		}
	}
	return append(dst, e)
}

// call classifies one call expression.
func (c *localCollector) call(call *ast.CallExpr, elided bool) {
	info := c.fn.Pkg.Info
	// Builtins and conversions first: they never resolve to a *Fn.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, isB := info.Uses[id].(*types.Builtin); isB {
			if !elided {
				switch b.Name() {
				case "make", "new":
					c.site(call.Pos(), b.Name(), false)
				case "append":
					c.appendSite(call, info)
				}
			}
			return
		}
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if !elided {
			c.conversionSite(call, tv.Type, info)
		}
		return
	}

	// Direct hot-path effects, matched by shape like the intraprocedural
	// analyzer so fixtures and the real module share one definition.
	if msg := flaggedCall(info, call); msg != "" {
		c.effect(call.Pos(), msg)
	}
	if d := lockDelta(info, call); d > 0 {
		c.effect(call.Pos(), "acquiring a shard mutex")
	}
	if d := lockDelta(info, call); d != 0 {
		return // lock bookkeeping, not an allocation or a callee to follow
	}

	callees, obj, external, unknown := c.m.resolveCall(c.fn.Pkg, call)
	switch {
	case len(callees) > 0:
		devirt := len(callees) > 1 || (obj != nil && c.m.fns[objFQN(obj)] != callees[0])
		for _, callee := range callees {
			c.fn.calls = append(c.fn.calls, callEdge{pos: call.Pos(), callee: callee, devirt: devirt, elided: elided})
		}
	case external:
		if desc := blockingExternal(obj); desc != "" {
			c.effect(call.Pos(), desc)
		}
		if !elided && !intrinsicZero(obj) {
			name := "?"
			if obj != nil {
				name = shortFQN(objFQN(obj))
			}
			c.site(call.Pos(), fmt.Sprintf("call to %s (external; allocations unknown)", name), true)
		}
	case unknown:
		// A function value: its target cannot be named statically.
		// Charged as unbounded — hot paths call named functions.
		if !elided {
			c.site(call.Pos(), "call through a function value (target unknown)", true)
		}
	}
	if !elided {
		escapes := unknown || (external && !intrinsicZero(obj))
		c.argSites(call, callees, obj, escapes, info)
	}
}

// conversionSite charges type conversions that copy: string <-> []byte
// and []rune. Conversions between types sharing an underlying type are
// free.
func (c *localCollector) conversionSite(call *ast.CallExpr, to types.Type, info *types.Info) {
	argT := info.Types[call.Args[0]].Type
	if argT == nil {
		return
	}
	from, dst := argT.Underlying(), to.Underlying()
	if types.Identical(from, dst) {
		return
	}
	fromStr := isString(from)
	dstStr := isString(dst)
	fromBytes := isByteSlice(from)
	dstBytes := isByteSlice(dst)
	if (fromStr && (dstBytes || isRuneSlice(dst))) || ((fromBytes || isRuneSlice(from)) && dstStr) {
		c.site(call.Pos(), "string conversion copies", false)
	}
}

func isString(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

func isRuneSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Rune
}

// appendSite charges `append(dst, ...)` only when dst can grow a fresh
// backing array the caller pays for: a bare local slice variable. A
// field destination (r.holders, t.batch.ord) reuses its owner's
// capacity — the scratch-slice idiom the hot path is built on — and a
// parameter or global is the caller's capacity, all amortized and
// covered at their owner's allocation site.
func (c *localCollector) appendSite(call *ast.CallExpr, info *types.Info) {
	if len(call.Args) == 0 {
		return
	}
	dst := call.Args[0]
	id, ok := dst.(*ast.Ident)
	if !ok {
		return // selector/index destination: owner-capacity reuse
	}
	obj := info.Uses[id]
	if obj == nil {
		return
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return
	}
	fn := c.fn.Decl
	if obj.Pos() < fn.Pos() || obj.Pos() > fn.End() {
		return // package-level accumulator: its capacity, not ours
	}
	// A parameter: caller-owned capacity.
	if fn.Type.Params != nil {
		for _, f := range fn.Type.Params.List {
			for _, pid := range f.Names {
				if info.Defs[pid] == obj {
					return
				}
			}
		}
	}
	c.site(call.Pos(), "append to local slice "+id.Name+" may grow", false)
}

// argSites charges address-of arguments that heap-move locals: `&x`
// (and `&T{...}` composites) escape when handed to an external callee
// or to a module function whose matching parameter escapes. Composite
// literals passed by value cost nothing; slice/map/func literals always
// allocate their backing store.
func (c *localCollector) argSites(call *ast.CallExpr, callees []*Fn, obj *types.Func, escapes bool, info *types.Info) {
	recvShift := 0
	if obj != nil {
		if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
			recvShift = 1
		}
	}
	// The method receiver itself: x.M() auto-takes &x for pointer
	// methods; charge when x is a local value and the receiver escapes.
	// An expression that is already a pointer (or an interface) takes no
	// new address here, and a value-receiver method copies its receiver.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && recvShift == 1 && ptrReceiver(obj) {
		if tv, ok := info.Types[sel.X]; ok {
			switch tv.Type.Underlying().(type) {
			case *types.Pointer, *types.Interface:
			default:
				if localRoot(info, c.fn.Decl, sel.X) && (escapes || paramEscapesAt(callees, 0)) {
					c.site(call.Pos(), "receiver of "+sel.Sel.Name+" escapes; local heap-moves", false)
				}
			}
		}
	}
	for i, a := range call.Args {
		arg, ok := a.(*ast.UnaryExpr)
		if !ok || arg.Op != token.AND {
			continue
		}
		if _, isLit := arg.X.(*ast.CompositeLit); isLit {
			continue // charged by the walk's own &T{...} case
		}
		if localRoot(info, c.fn.Decl, arg.X) && (escapes || paramEscapesAt(callees, i+recvShift)) {
			c.site(arg.Pos(), "address of local escapes; it heap-moves", false)
		}
	}
}

// compositeSite charges non-struct composite literals: slice and map
// literals allocate backing storage wherever they appear. A plain
// struct literal assigned or passed by value lives on the stack (the
// escaping &T{...} form is charged by the walk's address-of case).
func (c *localCollector) compositeSite(lit *ast.CompositeLit, info *types.Info) {
	tv, ok := info.Types[lit]
	if !ok {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice, *types.Map:
		c.site(lit.Pos(), "slice/map literal allocates", false)
	}
}

// localRoot reports whether expr's base identifier is a local variable
// of fd (not a parameter, not reached through a pointer field chain):
// only those can be heap-moved by taking their address.
func localRoot(info *types.Info, fd *ast.FuncDecl, e ast.Expr) bool {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			obj := info.Uses[v]
			if obj == nil {
				obj = info.Defs[v]
			}
			vr, ok := obj.(*types.Var)
			if !ok || vr.IsField() {
				return false
			}
			if obj.Pos() < fd.Pos() || obj.Pos() > fd.End() {
				return false
			}
			if isParamOf(info, fd, obj) {
				return false
			}
			return true
		case *ast.ParenExpr:
			e = v.X
		case *ast.SelectorExpr:
			// x.f: taking &x.f moves x only when x itself is a local
			// value; through a pointer it is already heap-resident.
			if tv, ok := info.Types[v.X]; ok {
				if _, isPtr := tv.Type.Underlying().(*types.Pointer); isPtr {
					return false
				}
			}
			e = v.X
		case *ast.IndexExpr:
			if tv, ok := info.Types[v.X]; ok {
				if _, isSlice := tv.Type.Underlying().(*types.Slice); isSlice {
					return false // element of a slice: backing array already allocated
				}
			}
			e = v.X
		default:
			return false
		}
	}
}

// ptrReceiver reports whether obj is a method with a pointer receiver
// (true also when obj is unknown, to stay conservative for
// devirtualized calls where only the interface method is in hand).
func ptrReceiver(obj *types.Func) bool {
	if obj == nil {
		return true
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	_, isPtr := sig.Recv().Type().(*types.Pointer)
	if !isPtr {
		_, isPtr = sig.Recv().Type().Underlying().(*types.Interface)
	}
	return isPtr
}

func isParamOf(info *types.Info, fd *ast.FuncDecl, obj types.Object) bool {
	check := func(fl *ast.FieldList) bool {
		if fl == nil {
			return false
		}
		for _, f := range fl.List {
			for _, id := range f.Names {
				if info.Defs[id] == obj {
					return true
				}
			}
		}
		return false
	}
	return check(fd.Type.Params) || check(fd.Recv) || check(fd.Type.Results)
}

// paramEscapesAt reports whether any candidate callee lets its i'th
// parameter escape. Empty callees means "not a module call" — the
// caller decides what external and unknown targets imply; answering
// true here would make every intrinsic external call look escaping.
func paramEscapesAt(callees []*Fn, i int) bool {
	for _, fn := range callees {
		if i >= len(fn.paramEscapes) {
			return true // variadic overflow or arity mismatch: be conservative
		}
		if fn.paramEscapes[i] {
			return true
		}
	}
	return false
}

func (c *localCollector) effect(pos token.Pos, desc string) {
	for _, e := range c.fn.effects {
		if e.desc == desc && e.path == "" {
			return
		}
	}
	c.fn.effects = append(c.fn.effects, effect{pos: pos, desc: desc})
}

func (c *localCollector) site(pos token.Pos, desc string, unbounded bool) {
	c.fn.allocs = append(c.fn.allocs, allocSite{pos: pos, desc: desc, unbounded: unbounded})
}

// propagateEffects runs the bottom-up fixpoint: each function's summary
// is its local effects plus every callee's, with the call chain
// recorded for diagnostics. The union is finite (descriptions dedupe),
// so recursion converges: an SCC ends up with the joint summary of the
// whole cycle — the conservative widening.
func (m *Module) propagateEffects() {
	changed := true
	for changed {
		changed = false
		for _, fn := range m.fns {
			for _, e := range fn.calls {
				for _, ce := range e.callee.effects {
					have := false
					for _, own := range fn.effects {
						if own.desc == ce.desc {
							have = true
							break
						}
					}
					if !have {
						path := shortFQN(e.callee.FQN)
						if ce.path != "" {
							path += " -> " + ce.path
						}
						fn.effects = append(fn.effects, effect{pos: e.pos, desc: ce.desc, path: path})
						changed = true
					}
				}
			}
		}
	}
}

// propagateEscapes computes paramEscapes per function: a parameter
// escapes if its value reaches a field, global, map, slice element,
// channel, return value, closure, or an external/unknown call; passing
// it on to a module function's non-escaping parameter does not count.
// Iterated to a fixpoint (escape information is monotone).
func (m *Module) propagateEscapes() {
	for _, fn := range m.fns {
		fn.paramEscapes = make([]bool, paramCount(fn.Decl))
	}
	changed := true
	for changed {
		changed = false
		for _, fn := range m.fns {
			if escapeScan(m, fn) {
				changed = true
			}
		}
	}
}

func paramCount(fd *ast.FuncDecl) int {
	n := 0
	if fd.Recv != nil {
		n++
	}
	if fd.Type.Params != nil {
		for _, f := range fd.Type.Params.List {
			if len(f.Names) == 0 {
				n++
			} else {
				n += len(f.Names)
			}
		}
	}
	return n
}

// paramIndex maps an object to its parameter slot (receiver = 0 when
// present), or -1.
func paramIndex(info *types.Info, fd *ast.FuncDecl, obj types.Object) int {
	i := 0
	if fd.Recv != nil {
		for _, f := range fd.Recv.List {
			for _, id := range f.Names {
				if info.Defs[id] == obj {
					return 0
				}
			}
		}
		i = 1
	}
	if fd.Type.Params != nil {
		for _, f := range fd.Type.Params.List {
			if len(f.Names) == 0 {
				i++
				continue
			}
			for _, id := range f.Names {
				if info.Defs[id] == obj {
					return i
				}
				i++
			}
		}
	}
	return -1
}

// escapeScan marks parameters of fn that escape; returns true when any
// flag newly flipped.
func escapeScan(m *Module, fn *Fn) bool {
	info := fn.Pkg.Info
	fd := fn.Decl
	flipped := false
	mark := func(e ast.Expr) {
		id, ok := unparen(e).(*ast.Ident)
		if !ok {
			return
		}
		obj := info.Uses[id]
		if obj == nil {
			return
		}
		if i := paramIndex(info, fd, obj); i >= 0 && i < len(fn.paramEscapes) && !fn.paramEscapes[i] {
			fn.paramEscapes[i] = true
			flipped = true
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				switch unparen(n.Lhs[i]).(type) {
				case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
					mark(rhs)
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				mark(r)
			}
		case *ast.SendStmt:
			mark(n.Value)
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					mark(kv.Value)
				} else {
					mark(el)
				}
			}
		case *ast.FuncLit:
			// Conservative: anything a closure references may outlive
			// the frame.
			ast.Inspect(n.Body, func(inner ast.Node) bool {
				if id, ok := inner.(*ast.Ident); ok {
					mark(id)
				}
				return true
			})
			return false
		case *ast.CallExpr:
			callees, obj, external, unknown := m.resolveCall(fn.Pkg, n)
			recvShift := 0
			if obj != nil {
				if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
					recvShift = 1
				}
			}
			escaping := unknown || (external && !intrinsicZero(obj))
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && recvShift == 1 {
				if escaping || paramEscapesAt(callees, 0) {
					mark(sel.X)
				}
			}
			for i, a := range n.Args {
				target := unparen(a)
				if u, ok := target.(*ast.UnaryExpr); ok && u.Op == token.AND {
					target = u.X
				}
				if escaping || paramEscapesAt(callees, i+recvShift) {
					mark(target)
				}
			}
		}
		return true
	})
	return flipped
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
