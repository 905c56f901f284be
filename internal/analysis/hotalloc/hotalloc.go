// Package hotalloc locks in the allocation discipline of the MTTKRP kernels
// (the O(R·nnz) per-iteration hot path of Algorithm 3). Inside functions
// annotated `//distenc:hotpath`, make / new / append are flagged anywhere in
// the body: hot-path scratch must come from the task arena
// (rdd.TaskCtx.Arena), which is what makes steady-state iterations
// allocation-free. The one sanctioned exception is the amortized self-append
// idiom `buf = append(buf, …)` outside a loop — growing a caller-owned buffer
// in place is how the wire encoders work. The rule reaches what the
// AllocsPerRun tests cannot: the map and reduce task closures, which those
// tests replicate rather than run.
//
// Setup and emission code that runs per mode or per partition rather than
// per non-zero — or whose result must outlive the arena's reset cycle — is
// excluded with a `//distenc:coldpath` directive on the statement (or loop)
// that owns it.
//
// The directive is recognized on a func declaration's doc comment, or on the
// line(s) directly above a statement containing func literals (annotating,
// e.g., the map closure handed to rdd.ShuffleMap).
package hotalloc

import (
	"go/ast"
	"go/types"

	"distenc/internal/analysis/directives"
	"distenc/internal/analysis/framework"
)

// Analyzer is the hotalloc pass.
var Analyzer = &framework.Analyzer{
	Name: "hotalloc",
	Doc:  "functions marked //distenc:hotpath must draw scratch from the task arena, never the heap",
	Run:  run,
}

func run(pass *framework.Pass) (any, error) {
	dirs := directives.Scan(pass.Fset, pass.Files)
	for _, file := range pass.Files {
		// Hot functions: annotated declarations, plus every func literal in a
		// statement annotated with the directive.
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil && dirs.Has(n, "hotpath") {
					checkHot(pass, dirs, n.Body)
					return false
				}
			case ast.Stmt:
				if !dirs.Has(n, "hotpath") {
					return true
				}
				ast.Inspect(n, func(n ast.Node) bool {
					if lit, ok := n.(*ast.FuncLit); ok {
						checkHot(pass, dirs, lit.Body)
						return false
					}
					return true
				})
				return false
			}
			return true
		})
	}
	return nil, nil
}

// checkHot walks a hot function body tracking loop depth: make, new and
// append are violations anywhere in it, except the self-append idiom outside
// a loop. Func literals inside run on their own schedule and are not part of
// this hot path unless separately annotated.
func checkHot(pass *framework.Pass, dirs *directives.Map, body *ast.BlockStmt) {
	selfAppends := collectSelfAppends(body)
	var walk func(n ast.Node, inLoop bool)
	walk = func(root ast.Node, inLoop bool) {
		ast.Inspect(root, func(n ast.Node) bool {
			if n == nil || n == root {
				return true
			}
			if stmt, ok := n.(ast.Stmt); ok && dirs.Has(stmt, "coldpath") {
				return false // audited setup/emission code
			}
			switch n := n.(type) {
			case *ast.ForStmt:
				for _, part := range []ast.Node{n.Init, n.Cond, n.Post} {
					if part != nil {
						walk(part, inLoop)
					}
				}
				walk(n.Body, true)
				return false
			case *ast.RangeStmt:
				walk(n.X, inLoop)
				walk(n.Body, true)
				return false
			case *ast.FuncLit:
				return false
			case *ast.CallExpr:
				id, ok := ast.Unparen(n.Fun).(*ast.Ident)
				if !ok {
					return true
				}
				b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
				if !ok || (b.Name() != "append" && b.Name() != "make" && b.Name() != "new") {
					return true
				}
				switch {
				case inLoop:
					pass.Reportf(n.Pos(), "%s inside a hot-path loop; hoist the allocation out of the per-entry path or mark the statement //distenc:coldpath -- reason", b.Name())
				case b.Name() == "append" && selfAppends[n]:
					// buf = append(buf, …): amortized in-place growth of a
					// caller-owned buffer, the wire-encoder idiom.
				default:
					pass.Reportf(n.Pos(), "%s allocates from the heap in a //distenc:hotpath body; draw scratch from the task arena (rdd.TaskCtx.Arena) or mark the statement //distenc:coldpath -- reason", b.Name())
				}
			}
			return true
		})
	}
	walk(body, false)
}

// collectSelfAppends gathers the append calls of the amortized in-place
// growth idiom `buf = append(buf, …)` (and its := form): outside a loop,
// growing a caller-owned buffer in place is the sanctioned way to build wire
// frames, so those calls are exempt from the arena rule.
func collectSelfAppends(body *ast.BlockStmt) map[*ast.CallExpr]bool {
	ok := make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		asg, isAsg := n.(*ast.AssignStmt)
		if !isAsg || len(asg.Lhs) != len(asg.Rhs) {
			return true
		}
		for i, rhs := range asg.Rhs {
			call, isCall := ast.Unparen(rhs).(*ast.CallExpr)
			if !isCall || len(call.Args) == 0 {
				continue
			}
			if id, isIdent := ast.Unparen(call.Fun).(*ast.Ident); !isIdent || id.Name != "append" {
				continue
			}
			if types.ExprString(asg.Lhs[i]) == types.ExprString(call.Args[0]) {
				ok[call] = true
			}
		}
		return true
	})
	return ok
}
