// Package goroutineowner requires every `go` statement in non-test code to
// be tied to a registered lifetime, making the fire-and-forget goroutine —
// the PR 7 orphaned-worker class, where a spawned watcher outlived the
// cluster that started it — structurally impossible.
//
// A `go` statement is owned when any of these holds:
//
//   - a `(*sync.WaitGroup).Add` call appears earlier in the same enclosing
//     function, the engine's dominant pattern (`wg.Add(1); go func() {
//     defer wg.Done(); … }()`), joined by Wait in Quiesce/Shutdown;
//   - the spawned function literal itself contains `defer wg.Done()` for
//     some WaitGroup (the Add happened in a caller that owns the count);
//   - the go statement carries `//distenc:goroutine-owned-by <mechanism> --
//     reason`, naming the lifetime that joins or bounds the goroutine
//     (e.g. channel-drain, conn-close, process-lifetime).
//
// A directive missing the mechanism argument or the reason is itself a
// diagnostic: the annotation is the audit trail for why the goroutine
// cannot leak, and an empty one records nothing.
package goroutineowner

import (
	"go/ast"
	"strings"

	"distenc/internal/analysis/directives"
	"distenc/internal/analysis/framework"
)

// Analyzer is the goroutineowner pass.
var Analyzer = &framework.Analyzer{
	Name: "goroutineowner",
	Doc:  "require every go statement in non-test code to have a registered lifetime (WaitGroup, drain, or //distenc:goroutine-owned-by)",
	Run:  run,
}

func run(pass *framework.Pass) (any, error) {
	dirs := directives.Scan(pass.Fset, pass.Files)
	for _, file := range pass.Files {
		name := pass.Fset.Position(file.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, dirs, fd.Body)
		}
	}
	return nil, nil
}

// checkFunc scans one function body for go statements. Nested function
// literals are separate scopes: an Add in the outer function does not own a
// go statement inside a literal that may itself run as a goroutine.
func checkFunc(pass *framework.Pass, dirs *directives.Map, body *ast.BlockStmt) {
	var sites []*ast.GoStmt
	var adds []ast.Node // WaitGroup.Add calls in this scope, in order
	var lits []*ast.FuncLit

	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			lits = append(lits, v)
			return false // analyzed as its own scope below
		case *ast.GoStmt:
			sites = append(sites, v)
			// The spawned literal (and any literal arguments) still get
			// their own scope scans.
			if lit, ok := ast.Unparen(v.Call.Fun).(*ast.FuncLit); ok {
				lits = append(lits, lit)
			}
			for _, a := range v.Call.Args {
				ast.Inspect(a, func(an ast.Node) bool {
					if l, ok := an.(*ast.FuncLit); ok {
						lits = append(lits, l)
						return false
					}
					return true
				})
			}
			return false
		case *ast.CallExpr:
			if isWaitGroupCall(pass, v, "Add") {
				adds = append(adds, v)
			}
		}
		return true
	})
	for _, g := range sites {
		checkGoStmt(pass, dirs, g, adds)
	}
	for _, lit := range lits {
		checkFunc(pass, dirs, lit.Body)
	}
}

func checkGoStmt(pass *framework.Pass, dirs *directives.Map, g *ast.GoStmt, adds []ast.Node) {
	// Ownership (1): wg.Add earlier in the same function.
	for _, a := range adds {
		if a.Pos() < g.Pos() {
			return
		}
	}
	// Ownership (2): the spawned literal defers a WaitGroup.Done — the Add
	// is owned by a caller.
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok && defersDone(pass, lit.Body) {
		return
	}
	// Ownership (3): an explicit directive on the statement, with mechanism
	// and reason.
	for _, d := range dirs.ForNode(g) {
		if d.Name == "goroutine-owned-by" {
			if len(d.Args) == 0 || d.Reason == "" {
				pass.Reportf(g.Pos(),
					"//distenc:goroutine-owned-by needs a mechanism and a reason (`//distenc:goroutine-owned-by <mechanism> -- why it cannot leak`)")
			}
			return
		}
	}
	pass.Reportf(g.Pos(),
		"unowned goroutine: tie it to a lifetime with wg.Add before the go statement, a deferred wg.Done in the goroutine, or //distenc:goroutine-owned-by <mechanism> -- reason")
}

// defersDone reports whether body contains `defer wg.Done()` for a
// sync.WaitGroup at its top level (not inside a nested literal).
func defersDone(pass *framework.Pass, body *ast.BlockStmt) bool {
	done := false
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		if d, ok := n.(*ast.DeferStmt); ok && isWaitGroupCall(pass, d.Call, "Done") {
			done = true
		}
		return !done
	})
	return done
}

func isWaitGroupCall(pass *framework.Pass, call *ast.CallExpr, method string) bool {
	fn := framework.Callee(pass.TypesInfo, call)
	return fn != nil && fn.Name() == method && fn.Pkg() != nil && fn.Pkg().Path() == "sync" && framework.RecvName(fn) == "WaitGroup"
}
