// Package flowgraph gives maporder per-function control-flow graphs with
// one reachability query: can a sort run after this loop completes. It is
// built on the vendored golang.org/x/tools/go/cfg; go/ssa is not vendored,
// so this is the minimal flow machinery the query needs, on plain AST
// nodes.
package flowgraph

import (
	"go/ast"

	"golang.org/x/tools/go/cfg"
)

// Graph is the control-flow graph of one function body plus the indexes the
// analyzers query. Build one per function with New; zero value is invalid.
type Graph struct {
	cfg *cfg.CFG
}

// New builds the flow graph of a function body. Every call is assumed to
// return (panic/os.Exit "noreturn" pruning would only remove paths, and the
// analyzers built on this layer are may-analyses — extra paths err toward
// reporting, never toward missing a flow).
func New(body *ast.BlockStmt) *Graph {
	return &Graph{cfg: cfg.New(body, func(*ast.CallExpr) bool { return true })}
}

// blockOf returns the basic block whose node list contains a node whose
// source extent covers n, preferring the tightest containing node. The cfg
// package records statements and the decomposed sub-expressions of control
// constructs; nested expressions are located by position containment.
func (g *Graph) blockOf(n ast.Node) *cfg.Block {
	var best *cfg.Block
	var bestSize int
	for _, b := range g.cfg.Blocks {
		for _, node := range b.Nodes {
			if node.Pos() <= n.Pos() && n.End() <= node.End() {
				size := int(node.End() - node.Pos())
				if best == nil || size < bestSize {
					best, bestSize = b, size
				}
			}
		}
	}
	return best
}

// exitOf returns the block control reaches after a loop or branch statement
// completes normally: the KindRangeDone / KindForDone / ... block recorded
// for that statement. Nil when the statement has no completion block (e.g.
// an unreachable loop).
func (g *Graph) exitOf(stmt ast.Stmt) *cfg.Block {
	for _, b := range g.cfg.Blocks {
		if b.Stmt != stmt {
			continue
		}
		switch b.Kind {
		case cfg.KindRangeDone, cfg.KindForDone, cfg.KindIfDone,
			cfg.KindSwitchDone, cfg.KindSelectDone:
			return b
		}
	}
	return nil
}

// ReachesAfter reports whether node target can execute on some path after
// loop (a for/range statement) completes. It is the "intervening sort"
// query: target is the sort call that would neutralize a map-ordered
// append, and the answer must be true only if the sort runs once the loop
// is done.
//
// When either endpoint cannot be located in the graph (dead code, build
// oddities) the result is false — the caller treats an unlocatable sort as
// absent and reports, erring toward a diagnostic that a human can suppress
// over a silent miss.
func (g *Graph) ReachesAfter(loop ast.Stmt, target ast.Node) bool {
	exit := g.exitOf(loop)
	if exit == nil {
		return false
	}
	tb := g.blockOf(target)
	if tb == nil {
		return false
	}
	seen := make(map[*cfg.Block]bool)
	stack := []*cfg.Block{exit}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[b] {
			continue
		}
		seen[b] = true
		if b == tb {
			return true
		}
		stack = append(stack, b.Succs...)
	}
	return false
}
