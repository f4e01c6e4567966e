package analysis

import (
	"go/ast"
	"go/types"
)

// CallbackUnderLock enforces the discipline of the lock path's emission
// seam (and of Options.OnVictim): journal emission, histogram
// observation and anything that can block happen outside the shard
// mutexes, because whatever they cost would otherwise stall every
// transaction hashed to that shard. The analyzer walks each
// function intraprocedurally, tracking how many shard mutexes are held
// (shard mu.Lock/Unlock, plus the stopTheWorld/resumeTheWorld and
// lockShards/unlockShards accumulators), and reports, while any is
// held:
//
//   - calls to metrics Histogram methods (Observe walks 34 buckets);
//   - flight-recorder emissions (journal Ring.Emit) — the write itself
//     is lock-free, but it reads the clock and packs a record, and the
//     journal's contract is that the hot path journals after the shard
//     mutex is released;
//   - channel sends, unless inside a select with a default clause
//     (the shard waker's non-blocking token deposit).
//
// Counter.Inc/Add/Load are a built-in audited exception: a Counter is
// one atomic word, and the per-shard counters are deliberately bumped
// while the shard mutex is held so the updates ride on its existing
// traffic (see shardMetrics).
var CallbackUnderLock = &Analyzer{
	Name: "callbacklock",
	Doc:  "no journal emission, histogram observation, or blocking channel send while a shard mutex is held",
	Run:  runCallbackUnderLock,
}

func runCallbackUnderLock(p *Pass) {
	funcDecls(p, func(fd *ast.FuncDecl) {
		w := &lockWalker{p: p}
		w.stmts(fd.Body.List, 0)
	})
}

// lockWalker walks a function's statements in order, carrying the
// number of shard mutexes held. Branches whose body terminates (early
// return after an error-path Unlock) do not leak their depth into the
// fall-through path; branches that do not terminate contribute their
// maximum, erring toward "held" so drift flags rather than hides.
type lockWalker struct {
	p *Pass
	// deferredUnlock is set once a `defer mu.Unlock()` is registered:
	// later-registered deferred calls run before it, i.e. still under
	// the lock.
	deferredUnlock bool
}

func (w *lockWalker) stmts(list []ast.Stmt, depth int) int {
	for _, s := range list {
		depth = w.stmt(s, depth)
	}
	return depth
}

func (w *lockWalker) stmt(s ast.Stmt, depth int) int {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if d := lockDelta(w.p.Info, call); d != 0 {
				return depth + d
			}
		}
		w.scan(s, depth)
	case *ast.DeferStmt:
		if lockDelta(w.p.Info, s.Call) < 0 {
			// The unlock fires at function end; everything below runs
			// with the mutex still held, so keep the depth.
			w.deferredUnlock = true
			return depth
		}
		if depth > 0 || w.deferredUnlock {
			w.scan(s.Call, depth+1) // runs before the deferred unlock
		}
	case *ast.BlockStmt:
		return w.stmts(s.List, depth)
	case *ast.IfStmt:
		w.scanMaybe(s.Init, depth)
		w.scan(s.Cond, depth)
		dBody := w.stmts(s.Body.List, depth)
		dElse := depth
		var elseTerm bool
		if s.Else != nil {
			dElse = w.stmt(s.Else, depth)
			if blk, ok := s.Else.(*ast.BlockStmt); ok {
				elseTerm = terminates(blk.List)
			}
		}
		switch {
		case terminates(s.Body.List):
			return dElse
		case elseTerm:
			return dBody
		default:
			return max(dBody, dElse)
		}
	case *ast.ForStmt:
		w.scanMaybe(s.Init, depth)
		if s.Cond != nil {
			w.scan(s.Cond, depth)
		}
		return w.stmts(s.Body.List, depth)
	case *ast.RangeStmt:
		w.scan(s.X, depth)
		return w.stmts(s.Body.List, depth)
	case *ast.SwitchStmt:
		w.scanMaybe(s.Init, depth)
		for _, c := range s.Body.List {
			w.stmts(c.(*ast.CaseClause).Body, depth)
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			w.stmts(c.(*ast.CaseClause).Body, depth)
		}
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range s.Body.List {
			if c.(*ast.CommClause).Comm == nil {
				hasDefault = true
			}
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			if send, ok := cc.Comm.(*ast.SendStmt); ok && !hasDefault && depth > 0 {
				w.p.Reportf(send.Pos(), "blocking channel send while a shard mutex is held (no default clause)")
			}
			w.stmts(cc.Body, depth)
		}
	case *ast.SendStmt:
		if depth > 0 {
			w.p.Reportf(s.Pos(), "blocking channel send while a shard mutex is held")
		}
		w.scan(s.Value, depth)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, depth)
	case *ast.GoStmt:
		// The goroutine runs without our locks; only its arguments are
		// evaluated here.
		for _, a := range s.Call.Args {
			if _, ok := a.(*ast.FuncLit); !ok {
				w.scan(a, depth)
			}
		}
	default:
		w.scan(s, depth)
	}
	return depth
}

func (w *lockWalker) scanMaybe(s ast.Stmt, depth int) {
	if s != nil {
		w.scan(s, depth)
	}
}

// scan inspects one statement or expression subtree for calls that must
// not run under a shard mutex. Function-literal bodies are skipped:
// they execute when called, not where written. Beyond the directly
// flagged operations, every call resolved through the module callgraph
// is checked against its interprocedural summary: a callee that — any
// number of frames down — emits to the journal, observes a histogram,
// blocks on a channel or acquires further shard mutexes is reported
// here at the call site, with the chain that
// reaches the effect.
func (w *lockWalker) scan(n ast.Node, depth int) {
	if depth <= 0 {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if msg := flaggedCall(w.p.Info, call); msg != "" {
			w.p.Reportf(call.Pos(), "%s while a shard mutex is held", msg)
			return true
		}
		w.scanSummary(call, depth)
		return true
	})
}

// scanSummary reports a resolved callee whose summary carries held-lock
// effects. Lock-bookkeeping calls (shard Lock/Unlock, the stop-the-
// world accumulators) are depth arithmetic handled by the statement
// walk, not effects.
func (w *lockWalker) scanSummary(call *ast.CallExpr, depth int) {
	if w.p.Mod == nil || lockDelta(w.p.Info, call) != 0 {
		return
	}
	callees, _, _, _ := w.p.Mod.resolveCall(pkgOf(w.p), call)
	reported := map[string]bool{}
	for _, callee := range callees {
		for _, e := range w.p.Mod.Effects(callee) {
			if reported[e.desc] {
				continue
			}
			reported[e.desc] = true
			chain := shortFQN(callee.FQN)
			if e.path != "" {
				chain += " -> " + e.path
			}
			w.p.Reportf(call.Pos(), "call to %s may perform %s while a shard mutex is held (via %s)",
				shortFQN(callee.FQN), e.desc, chain)
		}
	}
}

// pkgOf rebuilds the *Package view a Pass was created from, for
// callgraph resolution.
func pkgOf(p *Pass) *Package {
	return &Package{Fset: p.Fset, Files: p.Files, Types: p.Pkg, Info: p.Info}
}

// flaggedCall classifies a call that must not run under a shard mutex,
// returning a description or "".
func flaggedCall(info *types.Info, call *ast.CallExpr) string {
	if pkg, typ, method, ok := methodOn(info, call); ok {
		if pkg == "metrics" && typ == "Histogram" {
			return "metrics.Histogram." + method
		}
		if pkg == "journal" && typ == "Ring" && method == "Emit" {
			return "journal.Ring.Emit"
		}
	}
	return ""
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
