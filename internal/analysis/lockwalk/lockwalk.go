// Package lockwalk walks a function body in source order while tracking
// which sync.Mutex / sync.RWMutex values are held at every point. It is
// the shared engine behind the lockscope and guardedby analyzers.
//
// The tracking is intra-procedural and deliberately conservative in the
// direction of fewer false positives:
//
//   - mu.Lock() / mu.RLock() adds mu to the held set; mu.Unlock() /
//     mu.RUnlock() removes it; `defer mu.Unlock()` keeps it held for the
//     rest of the function (the dominant idiom in this repo).
//   - Branch bodies (if/else, switch cases, select clauses, loop bodies)
//     run on a copy of the held set. After the construct, a lock is
//     dropped from the outer set if ANY branch released it, and locks
//     acquired inside a branch do not leak out.
//   - Function literals launched with `go` or `defer` start with an
//     empty held set (they run in another goroutine / after unlock).
//     Other function literals inherit the current held set: in this
//     codebase closures built under a lock (a callback handed to a search
//     that returns before the unlock) are invoked synchronously while the
//     lock is still held.
//
// Mutexes are identified by the printed form of the receiver expression
// ("s.mu", "n.sys.statMu", ...), so aliasing through assignment is not
// tracked; that is the standard go/analysis trade-off for lock checkers.
package lockwalk

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
)

// Mode is how a lock is held.
type Mode int

const (
	// Read marks an RLock hold.
	Read Mode = iota + 1
	// Write marks an exclusive Lock hold (Mutex.Lock or RWMutex.Lock).
	Write
)

// Held maps a lock key (printed receiver expression, e.g. "s.mu") to the
// strongest mode it is currently held in.
type Held map[string]Mode

// clone copies a held set for a branch body.
func (h Held) clone() Held {
	c := make(Held, len(h))
	for k, v := range h {
		c[k] = v
	}
	return c
}

// Visitor receives every node reached during the walk together with the
// held set at that point. The map must not be retained or mutated.
type Visitor func(n ast.Node, held Held)

// Walk traverses body, calling visit for each expression and statement
// node encountered in source order with the locks held at that point.
func Walk(pass *analysis.Pass, body *ast.BlockStmt, visit Visitor) {
	w := &walker{pass: pass, visit: visit}
	w.stmts(body.List, Held{})
}

// LockKey returns the tracking key for the receiver of a Lock/Unlock
// style call, e.g. "s.mu" for s.mu.Lock(). The second result is false
// when call is not a method call on a sync mutex.
func LockKey(pass *analysis.Pass, call *ast.CallExpr) (key, method string, ok bool) {
	sel, okSel := call.Fun.(*ast.SelectorExpr)
	if !okSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	if !isMutex(pass.TypesInfo.TypeOf(sel.X)) {
		return "", "", false
	}
	return types.ExprString(sel.X), sel.Sel.Name, true
}

// isMutex reports whether t is (a pointer to) sync.Mutex or sync.RWMutex.
func isMutex(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

type walker struct {
	pass  *analysis.Pass
	visit Visitor
}

// stmts walks a statement list, threading the held set through it.
func (w *walker) stmts(list []ast.Stmt, held Held) {
	for _, s := range list {
		w.stmt(s, held)
	}
}

// branch walks a nested body on a copy of held and then removes from the
// outer set every lock the branch released — unless the branch cannot
// fall through (it ends in return/break/continue/goto/panic), in which
// case its lock transitions never reach the code after the construct.
// This keeps the ubiquitous early-return idiom precise:
//
//	mu.Lock()
//	if bad { mu.Unlock(); return err }
//	...   // mu still held here
func (w *walker) branch(list []ast.Stmt, held Held) {
	inner := held.clone()
	w.stmts(list, inner)
	if terminates(list) {
		return
	}
	for k := range held {
		if _, still := inner[k]; !still {
			delete(held, k)
		}
	}
}

// terminates reports whether a statement list always transfers control
// away (a conservative syntactic check on its last statement).
func terminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch last := list[len(list)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return terminates(last.List)
	}
	return false
}

func (w *walker) stmt(s ast.Stmt, held Held) {
	if s == nil {
		return
	}
	w.visit(s, held)
	switch s := s.(type) {
	case *ast.ExprStmt:
		// Lock-state transitions happen only as statement-level calls.
		if call, ok := s.X.(*ast.CallExpr); ok {
			if key, method, ok := LockKey(w.pass, call); ok {
				switch method {
				case "Lock":
					held[key] = Write
				case "RLock":
					held[key] = Read
				case "Unlock", "RUnlock":
					delete(held, key)
				}
				// Still scan the receiver chain (e.g. guarded fields in
				// s.nodes[i].mu.Lock()).
				w.expr(s.X, held)
				return
			}
		}
		w.expr(s.X, held)
	case *ast.DeferStmt:
		if key, method, ok := LockKey(w.pass, s.Call); ok && (method == "Unlock" || method == "RUnlock") {
			// defer mu.Unlock(): held for the rest of the function.
			_ = key
			w.expr(s.Call.Fun, held)
			return
		}
		w.deferredOrGo(s.Call, held)
	case *ast.GoStmt:
		w.deferredOrGo(s.Call, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e, held)
		}
		for _, e := range s.Lhs {
			w.expr(e, held)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v, held)
					}
				}
			}
		}
	case *ast.SendStmt:
		w.expr(s.Chan, held)
		w.expr(s.Value, held)
	case *ast.IncDecStmt:
		w.expr(s.X, held)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e, held)
		}
	case *ast.BlockStmt:
		w.stmts(s.List, held)
	case *ast.IfStmt:
		w.stmt(s.Init, held)
		w.expr(s.Cond, held)
		w.branch(s.Body.List, held)
		if s.Else != nil {
			w.branch([]ast.Stmt{s.Else}, held)
		}
	case *ast.ForStmt:
		w.stmt(s.Init, held)
		if s.Cond != nil {
			w.expr(s.Cond, held)
		}
		w.branch(append(append([]ast.Stmt{}, s.Body.List...), post(s.Post)...), held)
	case *ast.RangeStmt:
		w.expr(s.X, held)
		w.branch(s.Body.List, held)
	case *ast.SwitchStmt:
		w.stmt(s.Init, held)
		if s.Tag != nil {
			w.expr(s.Tag, held)
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				w.expr(e, held)
			}
			w.branch(cc.Body, held)
		}
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init, held)
		w.stmt(s.Assign, held)
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			w.branch(cc.Body, held)
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			if cc.Comm != nil {
				w.stmt(cc.Comm, held)
			}
			w.branch(cc.Body, held)
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, held)
	}
}

func post(s ast.Stmt) []ast.Stmt {
	if s == nil {
		return nil
	}
	return []ast.Stmt{s}
}

// deferredOrGo walks a go/defer call: arguments evaluate now (under the
// current held set), but a function-literal body runs later with no lock
// guaranteed held.
func (w *walker) deferredOrGo(call *ast.CallExpr, held Held) {
	w.visit(call, held)
	for _, a := range call.Args {
		w.expr(a, held)
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		w.stmts(lit.Body.List, Held{})
	} else {
		w.expr(call.Fun, held)
	}
}

// expr visits an expression tree, diving into function literals with the
// current held set (synchronous-closure heuristic; see package comment).
func (w *walker) expr(e ast.Expr, held Held) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if lit, ok := n.(*ast.FuncLit); ok {
			w.visit(lit, held)
			w.stmts(lit.Body.List, held.clone())
			return false
		}
		w.visit(n, held)
		return true
	})
}
