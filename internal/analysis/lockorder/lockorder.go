// Package lockorder defines an Analyzer that proves the repo's lock
// acquisition order is a partial order — globally, across packages.
//
// PR 4 and PR 6 grew lock graphs that span package boundaries: a serving
// engine that holds its state lock while publishing into the sharded route
// cache, a health detector whose quarantine transitions thread two overlay
// locks, a chaos engine invoked from under the overlay's send path. A
// deadlock needs only two such chains to disagree about order, and no
// intra-package check can see the disagreement. This analyzer can:
//
//   - Within each function it tracks the held-lock set (the lockwalk
//     engine) and records every acquisition-under-hold as a directed edge
//     between *lock classes* — a mutex identified by its declaration site,
//     e.g. `serve.Engine.stateMu` or `routing.cacheShard.mu`, so every
//     instance of a struct shares one node in the graph.
//   - Calls made while holding a lock are resolved to their static callee
//     and summarized; summaries and edges are exported as analysis facts,
//     so when package serve is analyzed, the lock behavior of the routing
//     functions it calls is already known, and edges crossing the package
//     boundary (stateMu → cacheShard.mu via RouteCache.Put) appear in the
//     global graph.
//   - Any cycle reachable from an edge observed in the package under
//     analysis is reported with its witnessing chain, one hop per line.
//
// The canonical order is a committed contract, not tribal knowledge:
// order.txt (embedded, or -manifest to override) ranks every lock class in
// the core concurrent packages (-packages, default overlay,serve,routing,
// chaos). An acquisition edge that runs *backward* through the manifest is
// reported even before it closes a cycle, a mutex declared in a core
// package but missing from the manifest is reported too — adding a lock
// means declaring where it sits in the global order, in the same commit —
// and so is a class ranked for a core package that no longer declares it.
//
// Suppress an intentional site with
//
//	//hfcvet:ignore lockorder <why this cannot deadlock>
package lockorder

import (
	_ "embed"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"

	"hfc/internal/analysis/ignore"
	"hfc/internal/analysis/lockwalk"
)

// Analyzer is the lockorder pass.
var Analyzer = &analysis.Analyzer{
	Name:      "lockorder",
	Doc:       "build the cross-package lock-acquisition graph, reject cycles and manifest-order violations",
	Run:       run,
	FactTypes: []analysis.Fact{new(packageFact)},
}

//go:embed order.txt
var embeddedManifest string

var (
	manifestFlag string
	packagesFlag string
)

func init() {
	Analyzer.Flags.StringVar(&manifestFlag, "manifest", "",
		"path to a lock-order manifest overriding the embedded order.txt")
	Analyzer.Flags.StringVar(&packagesFlag, "packages", "overlay,serve,routing,chaos",
		"comma-separated package names whose every mutex must appear in the manifest")
}

// packageFact is the exported lock summary of one package: the acquisition
// edges observed in its functions (direct and through calls) and the lock
// behavior of each function, for callers in downstream packages.
type packageFact struct {
	Edges []factEdge
	Funcs []funcSummary
}

func (*packageFact) AFact()           {}
func (f *packageFact) String() string { return fmt.Sprintf("lockorder(%d edges)", len(f.Edges)) }

// factEdge is one lock-class ordering edge with a human-readable witness
// ("func acquires B while holding A at file:line [via call chain]").
type factEdge struct {
	From, To string
	Witness  string
}

// funcSummary records what one function does with locks, for transitive
// resolution from other packages.
type funcSummary struct {
	// Name is the types.Func full name, e.g.
	// "(*hfc/internal/routing.RouteCache).AdvanceRound".
	Name string
	// Acquires lists lock classes the function acquires directly.
	Acquires []string
	// Calls lists full names of statically resolvable callees.
	Calls []string
}

// localEdge is a factEdge that still knows its in-package report position.
type localEdge struct {
	factEdge
	pos token.Pos
}

func run(pass *analysis.Pass) (interface{}, error) {
	dirs := ignore.Parse(pass)
	manifest, err := loadManifest()
	if err != nil {
		return nil, err
	}

	sc := &scanner{pass: pass, funcs: map[string]*funcSummary{}}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				sc.scanFunc(fn)
			}
		}
	}

	// The global function table: this package plus everything reachable
	// through its imports (facts flow in dependency order, so the callees'
	// packages are always already summarized).
	table := map[string]*funcSummary{}
	var importedEdges []factEdge
	for _, dep := range transitiveImports(pass.Pkg) {
		var fact packageFact
		if !pass.ImportPackageFact(dep, &fact) {
			continue
		}
		importedEdges = append(importedEdges, fact.Edges...)
		for i := range fact.Funcs {
			table[fact.Funcs[i].Name] = &fact.Funcs[i]
		}
	}
	for name, fs := range sc.funcs {
		table[name] = fs
	}

	// Derive edges for calls made while holding: held → every lock class
	// the callee may transitively acquire.
	trans := &transCloser{table: table, memo: map[string][]string{}}
	local := sc.edges
	for _, ch := range sc.callsHolding {
		for _, acq := range trans.acquires(ch.callee) {
			for _, held := range ch.held {
				local = append(local, localEdge{
					pos: ch.pos,
					factEdge: factEdge{
						From: held,
						To:   acq,
						Witness: fmt.Sprintf("%s calls %s while holding %s (acquires %s) at %s",
							ch.caller, shortFuncName(ch.callee), held, acq, ch.position),
					},
				})
			}
		}
	}
	local = dedupeLocal(local)

	// The union graph this package can see.
	graph := map[string][]factEdge{}
	for _, e := range importedEdges {
		graph[e.From] = append(graph[e.From], e)
	}
	for _, e := range local {
		graph[e.From] = append(graph[e.From], e.factEdge)
	}

	reportCycles(pass, dirs, graph, local)
	reportManifestViolations(pass, dirs, manifest, local)
	reportUnlistedLocks(pass, dirs, manifest, sc.declared, sc.declaredSeen)

	// Export this package's contribution: its own edges and summaries.
	if len(local) > 0 || len(sc.funcs) > 0 {
		fact := &packageFact{}
		for _, e := range local {
			fact.Edges = append(fact.Edges, e.factEdge)
		}
		names := make([]string, 0, len(sc.funcs))
		for name := range sc.funcs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fact.Funcs = append(fact.Funcs, *sc.funcs[name])
		}
		pass.ExportPackageFact(fact)
	}

	dirs.ReportUnused(pass)
	return nil, nil
}

// reportCycles reports, once per (from, to) pair, every local edge that
// closes a cycle in the union graph, with the full witnessing chain.
func reportCycles(pass *analysis.Pass, dirs *ignore.Directives, graph map[string][]factEdge, local []localEdge) {
	seen := map[string]bool{}
	for _, e := range local {
		key := e.From + "\x00" + e.To
		if seen[key] {
			continue
		}
		seen[key] = true
		chain := findPath(graph, e.To, e.From)
		if chain == nil {
			continue
		}
		var b strings.Builder
		fmt.Fprintf(&b, "lock-order cycle: %s → %s", e.From, e.To)
		for _, hop := range chain {
			fmt.Fprintf(&b, " → %s", hop.To)
		}
		fmt.Fprintf(&b, "\n\t%s", e.Witness)
		for _, hop := range chain {
			fmt.Fprintf(&b, "\n\t%s", hop.Witness)
		}
		dirs.Report(pass, e.pos, "%s", b.String())
	}
}

// findPath BFSes from one lock class to another, returning the edge chain
// or nil. A self-edge (from == to) is the trivial cycle and returns an
// empty, non-nil chain.
func findPath(graph map[string][]factEdge, from, to string) []factEdge {
	if from == to {
		return []factEdge{}
	}
	type item struct {
		class string
		chain []factEdge
	}
	visited := map[string]bool{from: true}
	queue := []item{{class: from}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range graph[cur.class] {
			if visited[e.To] {
				continue
			}
			chain := append(append([]factEdge{}, cur.chain...), e)
			if e.To == to {
				return chain
			}
			visited[e.To] = true
			queue = append(queue, item{class: e.To, chain: chain})
		}
	}
	return nil
}

// reportManifestViolations flags local edges that run backward through the
// manifest ranking: acquiring a lower-ranked lock while holding a
// higher-ranked one, even before any cycle closes.
func reportManifestViolations(pass *analysis.Pass, dirs *ignore.Directives, manifest map[string]int, local []localEdge) {
	seen := map[string]bool{}
	for _, e := range local {
		fi, fok := manifest[e.From]
		ti, tok := manifest[e.To]
		if !fok || !tok || fi <= ti {
			continue
		}
		key := e.From + "\x00" + e.To
		if seen[key] {
			continue
		}
		seen[key] = true
		dirs.Report(pass, e.pos,
			"lock order contract violation: %s (rank %d) acquired while holding %s (rank %d); order.txt ranks %s first\n\t%s",
			e.To, ti+1, e.From, fi+1, e.To, e.Witness)
	}
}

// reportUnlistedLocks enforces that the manifest and the configured core
// packages agree: every mutex they declare must hold a rank, and every class
// ranked under a package's name must still be declared there (reported at the
// package clause; an external test package declares none and is not asked).
func reportUnlistedLocks(pass *analysis.Pass, dirs *ignore.Directives, manifest map[string]int, declared []declaredLock, live map[string]bool) {
	if !inPackageSet(pass.Pkg.Name(), packagesFlag) {
		return
	}
	for _, d := range declared {
		if _, ok := manifest[d.class]; !ok {
			dirs.Report(pass, d.pos,
				"lock %s is not in the lock-order manifest (internal/analysis/lockorder/order.txt); add it at its acquisition rank",
				d.class)
		}
	}
	if strings.HasSuffix(pass.Pkg.Name(), "_test") {
		return
	}
	var dead []string
	for class := range manifest {
		if strings.HasPrefix(class, pass.Pkg.Name()+".") && !live[class] {
			dead = append(dead, class)
		}
	}
	sort.Strings(dead)
	for _, class := range dead {
		dirs.Report(pass, pass.Files[0].Name.Pos(),
			"lock %s is ranked in the lock-order manifest (internal/analysis/lockorder/order.txt) but no longer declared; drop its line", class)
	}
}

func inPackageSet(name, flagValue string) bool {
	name = strings.TrimSuffix(name, "_test")
	for _, p := range strings.Split(flagValue, ",") {
		if strings.TrimSpace(p) == name {
			return true
		}
	}
	return false
}

// loadManifest parses the manifest into class → rank. Lines are lock
// classes in acquisition order; blank lines and #-comments are skipped.
func loadManifest() (map[string]int, error) {
	text := embeddedManifest
	if manifestFlag != "" {
		b, err := os.ReadFile(manifestFlag)
		if err != nil {
			return nil, fmt.Errorf("lockorder: -manifest: %w", err)
		}
		text = string(b)
	}
	manifest := map[string]int{}
	rank := 0
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if _, dup := manifest[line]; !dup {
			manifest[line] = rank
			rank++
		}
	}
	return manifest, nil
}

// callHolding is one call made with locks held, pending transitive
// resolution of the callee's acquisitions.
type callHolding struct {
	caller   string
	callee   string
	held     []string
	pos      token.Pos
	position string
}

// declaredLock is a mutex declaration site (struct field or package-level
// var) for the manifest completeness check.
type declaredLock struct {
	class string
	pos   token.Pos
}

// scanner accumulates one package's lock facts.
type scanner struct {
	pass         *analysis.Pass
	funcs        map[string]*funcSummary
	edges        []localEdge
	callsHolding []callHolding
	declared     []declaredLock
	declaredSeen map[string]bool
}

// scanFunc walks one function with the held-set tracker, recording direct
// acquisition edges, calls under hold, and the function's own summary.
func (sc *scanner) scanFunc(fn *ast.FuncDecl) {
	pass := sc.pass
	obj, _ := pass.TypesInfo.Defs[fn.Name].(*types.Func)
	if obj == nil {
		return
	}
	name := obj.FullName()
	fs := sc.funcs[name]
	if fs == nil {
		fs = &funcSummary{Name: name}
		sc.funcs[name] = fs
	}
	acquired := map[string]bool{}
	called := map[string]bool{}

	// Calls launched with `go` run without the spawner's locks; their
	// acquisitions impose no order against the held set here.
	goCalls := map[*ast.CallExpr]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			goCalls[g.Call] = true
		}
		return true
	})

	// keyClass maps lockwalk's expression keys ("e.stateMu") to lock
	// classes ("serve.Engine.stateMu") as acquisitions are encountered.
	keyClass := map[string]string{}
	classesOf := func(held lockwalk.Held) []string {
		out := make([]string, 0, len(held))
		for key := range held {
			if c := keyClass[key]; c != "" {
				out = append(out, c)
			}
		}
		sort.Strings(out)
		return out
	}

	lockwalk.Walk(pass, fn.Body, func(n ast.Node, held lockwalk.Held) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		if key, method, ok := lockwalk.LockKey(pass, call); ok {
			if method != "Lock" && method != "RLock" {
				return
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return
			}
			class := sc.classOf(sel.X)
			if class == "" {
				return
			}
			keyClass[key] = class
			if !acquired[class] {
				acquired[class] = true
				fs.Acquires = append(fs.Acquires, class)
			}
			// The walker hands us the post-transition held set: the lock
			// being acquired is already in it under its own key. Skip that
			// key; a *different* key of the same class (two instances,
			// hand-over-hand) is a genuine self-edge and stays.
			var heldClasses []string
			for heldKey := range held {
				if heldKey == key {
					continue
				}
				if c := keyClass[heldKey]; c != "" {
					heldClasses = append(heldClasses, c)
				}
			}
			sort.Strings(heldClasses)
			for _, heldClass := range heldClasses {
				sc.edges = append(sc.edges, localEdge{
					pos: call.Pos(),
					factEdge: factEdge{
						From: heldClass,
						To:   class,
						Witness: fmt.Sprintf("%s acquires %s while holding %s at %s",
							shortFuncName(name), class, heldClass, sc.position(call.Pos())),
					},
				})
			}
			return
		}
		callee := staticCallee(pass, call)
		if callee == nil {
			return
		}
		calleeName := callee.FullName()
		if !called[calleeName] {
			called[calleeName] = true
			fs.Calls = append(fs.Calls, calleeName)
		}
		if len(held) == 0 || goCalls[call] {
			return
		}
		if heldClasses := classesOf(held); len(heldClasses) > 0 {
			sc.callsHolding = append(sc.callsHolding, callHolding{
				caller:   shortFuncName(name),
				callee:   calleeName,
				held:     heldClasses,
				pos:      call.Pos(),
				position: sc.position(call.Pos()),
			})
		}
	})

	// Mutex declarations for the completeness check, gathered per file once
	// (scanFunc is called per function; collect lazily on first call).
	if sc.declaredSeen == nil {
		sc.declaredSeen = map[string]bool{}
		sc.collectDeclared()
	}
}

// collectDeclared records every mutex declared in the package: named-struct
// fields and package-level vars.
func (sc *scanner) collectDeclared() {
	pass := sc.pass
	pkgName := pass.Pkg.Name()
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					st, ok := spec.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						if !isMutexType(pass.TypesInfo.TypeOf(field.Type)) {
							continue
						}
						for _, fieldName := range field.Names {
							class := pkgName + "." + spec.Name.Name + "." + fieldName.Name
							if !sc.declaredSeen[class] {
								sc.declaredSeen[class] = true
								sc.declared = append(sc.declared, declaredLock{class: class, pos: fieldName.Pos()})
							}
						}
					}
				case *ast.ValueSpec:
					if gd.Tok != token.VAR {
						continue
					}
					for _, varName := range spec.Names {
						obj := pass.TypesInfo.Defs[varName]
						if obj == nil || !isMutexType(obj.Type()) {
							continue
						}
						class := pkgName + "." + varName.Name
						if !sc.declaredSeen[class] {
							sc.declaredSeen[class] = true
							sc.declared = append(sc.declared, declaredLock{class: class, pos: varName.Pos()})
						}
					}
				}
			}
		}
	}
}

// classOf names the lock class of a mutex expression: the declaration site
// shared by every instance. Struct fields become pkg.Type.field, package
// vars pkg.var; function-local mutexes return "" (they cannot participate
// in cross-instance ordering).
func (sc *scanner) classOf(expr ast.Expr) string {
	pass := sc.pass
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
			continue
		case *ast.StarExpr:
			expr = e.X
			continue
		}
		break
	}
	switch e := expr.(type) {
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[e]; ok && sel.Kind() == types.FieldVal {
			recv := sel.Recv()
			if p, ok := recv.Underlying().(*types.Pointer); ok {
				recv = p.Elem()
			}
			// Walk the embedded-field index path to the struct that
			// actually declares the mutex field.
			owner := namedOf(recv)
			if owner == nil {
				return ""
			}
			return owner.Obj().Pkg().Name() + "." + owner.Obj().Name() + "." + e.Sel.Name
		}
		// Qualified package-level var: pkg.Mu.
		if obj, ok := pass.TypesInfo.Uses[e.Sel].(*types.Var); ok && obj.Pkg() != nil &&
			obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Name() + "." + obj.Name()
		}
	case *ast.Ident:
		if obj, ok := pass.TypesInfo.Uses[e].(*types.Var); ok && obj.Pkg() != nil &&
			obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Name() + "." + obj.Name()
		}
	}
	return ""
}

func (sc *scanner) position(pos token.Pos) string {
	p := sc.pass.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

// namedOf unwraps aliases and returns the named type, or nil.
func namedOf(t types.Type) *types.Named {
	if n, ok := t.(*types.Named); ok {
		return n
	}
	return nil
}

// isMutexType reports whether t is (a pointer to) sync.Mutex or RWMutex.
func isMutexType(t types.Type) bool {
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
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// staticCallee resolves a call to its static *types.Func: a plain function,
// a qualified package function, or a concrete method. Interface method
// calls and function values return nil.
func staticCallee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := pass.TypesInfo.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			recv := sel.Recv()
			if p, ok := recv.Underlying().(*types.Pointer); ok {
				recv = p.Elem()
			}
			if _, isIface := recv.Underlying().(*types.Interface); isIface {
				return nil
			}
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		if f, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// shortFuncName compresses a full function name for witnesses:
// "(*hfc/internal/serve.Engine).compute" → "(*serve.Engine).compute".
func shortFuncName(full string) string {
	out := full
	for {
		i := strings.Index(out, "hfc/internal/")
		if i < 0 {
			break
		}
		out = out[:i] + out[i+len("hfc/internal/"):]
	}
	return out
}

// transCloser memoizes the transitive lock acquisitions of functions over
// the global summary table.
type transCloser struct {
	table map[string]*funcSummary
	memo  map[string][]string
}

func (tc *transCloser) acquires(name string) []string {
	if got, ok := tc.memo[name]; ok {
		return got // nil while in progress breaks recursion cycles
	}
	tc.memo[name] = nil
	fs := tc.table[name]
	if fs == nil {
		return nil
	}
	set := map[string]bool{}
	for _, a := range fs.Acquires {
		set[a] = true
	}
	for _, callee := range fs.Calls {
		for _, a := range tc.acquires(callee) {
			set[a] = true
		}
	}
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	tc.memo[name] = out
	return out
}

// transitiveImports lists every package reachable from pkg's imports.
func transitiveImports(pkg *types.Package) []*types.Package {
	var out []*types.Package
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		out = append(out, p)
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, imp := range pkg.Imports() {
		walk(imp)
	}
	return out
}

// dedupeLocal keeps the first edge per (from, to) pair.
func dedupeLocal(edges []localEdge) []localEdge {
	seen := map[string]bool{}
	out := edges[:0]
	for _, e := range edges {
		key := e.From + "\x00" + e.To
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, e)
	}
	return out
}
