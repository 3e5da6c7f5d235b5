// Package hotalloc defines an Analyzer that ratchets allocation counts
// on the serving hot paths.
//
// Benchmarks catch an allocation regression after the fact; this analyzer
// makes the budget part of the function's declaration:
//
//	// findPathScratch runs Dijkstra from pooled scratch state.
//	//
//	//hfc:hotpath budget=3
//	func (r *Router) findPathScratch(...) ...
//
// Every function whose doc comment carries //hfc:hotpath is scanned for
// potential allocation sites, and a count above the declared budget
// (default 0) is reported with the full site list. Counted sites:
//
//   - make and new calls
//   - &T{…}, slice and map literals (outermost only — nested literals
//     share the enclosing allocation); struct and array literals are
//     values stored in place and count only when boxed
//   - append calls (may grow the backing array)
//   - function literals (closure allocation)
//   - string concatenation with a non-constant result
//   - string ⇄ byte/rune-slice conversions
//   - interface boxing: a non-pointer-shaped value passed for an
//     interface parameter, or a value literal assigned or returned as an
//     interface (pointers, maps, chans and funcs fit the interface word
//     and do not count)
//
// This is a syntactic may-allocate count, deliberately cruder than the
// compiler's escape analysis: sites the compiler proves stack-safe still
// count, so the budget is a stable upper bound that does not silently
// shift with inlining decisions. A site that is provably cold or pooled
// can be excluded with
//
//	//hfcvet:ignore hotalloc <why this site does not allocate per call>
//
// which removes it from the count.
package hotalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"

	"golang.org/x/tools/go/analysis"

	"hfc/internal/analysis/ignore"
)

// Analyzer is the hotalloc pass.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "enforce //hfc:hotpath allocation budgets on hot-path functions",
	Run:  run,
}

var budgetRe = regexp.MustCompile(`^//hfc:hotpath(?:\s+budget=(\d+))?\s*$`)

func run(pass *analysis.Pass) (interface{}, error) {
	dirs := ignore.Parse(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			budget, marked := hotpathBudget(pass, fn)
			if !marked {
				continue
			}
			checkHot(pass, dirs, fn, budget)
		}
	}
	dirs.ReportUnused(pass)
	return nil, nil
}

// hotpathBudget parses the //hfc:hotpath line from a function's doc
// comment. Malformed forms (extra tokens, bad budget) are reported.
func hotpathBudget(pass *analysis.Pass, fn *ast.FuncDecl) (int, bool) {
	if fn.Doc == nil {
		return 0, false
	}
	for _, c := range fn.Doc.List {
		if !strings.HasPrefix(c.Text, "//hfc:hotpath") {
			continue
		}
		m := budgetRe.FindStringSubmatch(c.Text)
		if m == nil {
			// Reported on the declaration, where a fix lands anyway.
			pass.Reportf(fn.Name.Pos(), "malformed hot-path annotation: want //hfc:hotpath budget=<n>")
			return 0, false
		}
		n, err := strconv.Atoi(m[1]) // no budget= reads as 0
		if m[1] != "" && err != nil {
			pass.Reportf(fn.Name.Pos(), "malformed hot-path budget %q", m[1])
			return 0, false
		}
		return n, true
	}
	return 0, false
}

// checkHot counts allocation sites in one hot function and reports when
// the count exceeds the budget.
func checkHot(pass *analysis.Pass, dirs *ignore.Directives, fn *ast.FuncDecl, budget int) {
	var sites []string // one "what at file:line" per potential allocation
	add := func(what string, pos token.Pos) {
		if dirs.Suppressed("hotalloc", pos) {
			return // justified site: excluded from the count
		}
		p := pass.Fset.Position(pos)
		sites = append(sites, fmt.Sprintf("%s at %s:%d", what, filepath.Base(p.Filename), p.Line))
	}

	boxed := func(to types.Type, e ast.Expr) {
		if to != nil && types.IsInterface(to) && valueLit(pass, e) {
			add("interface boxing", e.Pos())
		}
	}
	// walk counts the sites in body, whose returns box into sig's results.
	var walk func(body ast.Node, sig *types.Signature)
	walk = func(body ast.Node, sig *types.Signature) {
		var addressed *ast.CompositeLit // the operand of the last &T{…} seen
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.UnaryExpr:
				if lit, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok && n.Op == token.AND {
					addressed = lit
				}
			case *ast.CompositeLit:
				if n != addressed && valueLit(pass, n) {
					break // a value stored in place
				}
				// Count the outermost literal only; nested literals share the
				// enclosing allocation. Calls inside elements still count.
				add("composite literal", n.Pos())
				for _, e := range n.Elts {
					ast.Inspect(e, func(m ast.Node) bool {
						_, nested := m.(*ast.CompositeLit)
						return nested || visit(m)
					})
				}
				return false
			case *ast.FuncLit:
				// The closure itself allocates; its body is part of this
				// function's per-call cost when invoked inline, so keep
				// counting inside it too.
				add("closure", n.Pos())
				walk(n.Body, pass.TypesInfo.TypeOf(n).(*types.Signature))
				return false
			case *ast.CallExpr:
				classifyCall(pass, n, add)
			case *ast.BinaryExpr:
				if n.Op == token.ADD && isNonConstString(pass, n) {
					add("string concatenation", n.OpPos)
				}
			case *ast.AssignStmt:
				for i := 0; i < len(n.Rhs) && len(n.Lhs) == len(n.Rhs); i++ {
					boxed(pass.TypesInfo.TypeOf(n.Lhs[i]), n.Rhs[i])
				}
			case *ast.ValueSpec:
				for _, v := range n.Values {
					boxed(pass.TypesInfo.TypeOf(n.Type), v)
				}
			case *ast.ReturnStmt:
				for i := 0; i < len(n.Results) && sig.Results().Len() == len(n.Results); i++ {
					boxed(sig.Results().At(i).Type(), n.Results[i])
				}
			}
			return true
		}
		ast.Inspect(body, visit)
	}
	walk(fn.Body, pass.TypesInfo.ObjectOf(fn.Name).Type().(*types.Signature))

	if len(sites) <= budget {
		return
	}
	dirs.Report(pass, fn.Name.Pos(), "hot path %s has %d potential allocation sites, budget %d:\n\t%s",
		fn.Name.Name, len(sites), budget, strings.Join(sites, "\n\t"))
}

// classifyCall records make/new/append, allocating conversions, and
// interface-boxing arguments.
func classifyCall(pass *analysis.Pass, call *ast.CallExpr, add func(string, token.Pos)) {
	// Conversions: T(x). String/byte-slice crossings copy.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && allocatingConversion(pass, tv.Type, call.Args[0]) {
			add("string/slice conversion", call.Pos())
		}
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.TypesInfo.ObjectOf(id).(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				add("make", call.Pos())
			case "new":
				add("new", call.Pos())
			case "append":
				add("append", call.Pos())
			}
			return
		}
	}
	// Interface boxing of non-pointer-shaped arguments.
	sigTV, ok := pass.TypesInfo.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := sigTV.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		at := pass.TypesInfo.TypeOf(arg)
		if at == nil || boxFree(at) {
			continue
		}
		add("interface boxing", arg.Pos())
	}
}

// valueLit reports whether e is a struct or array literal: a value
// stored in place, which allocates only when boxed.
func valueLit(pass *analysis.Pass, e ast.Expr) bool {
	if lit, ok := ast.Unparen(e).(*ast.CompositeLit); ok {
		switch pass.TypesInfo.TypeOf(lit).Underlying().(type) {
		case *types.Struct, *types.Array:
			return true
		}
	}
	return false
}

// boxFree reports whether a value of type t fits an interface without
// allocating: interfaces themselves, pointer-shaped types, and untyped
// nil.
func boxFree(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UntypedNil || u.Kind() == types.UnsafePointer
	}
	return false
}

// allocatingConversion reports string ⇄ []byte / []rune crossings.
func allocatingConversion(pass *analysis.Pass, to types.Type, arg ast.Expr) bool {
	from := pass.TypesInfo.TypeOf(arg)
	if from == nil {
		return false
	}
	return (isString(to) && isByteOrRuneSlice(from)) ||
		(isByteOrRuneSlice(to) && isString(from))
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	e, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (e.Kind() == types.Byte || e.Kind() == types.Rune) // Byte is Uint8, Rune is Int32
}

// isNonConstString reports a string + whose result is not a constant.
func isNonConstString(pass *analysis.Pass, e *ast.BinaryExpr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.Value == nil && isString(tv.Type)
}
