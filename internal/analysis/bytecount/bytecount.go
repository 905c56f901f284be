// Package bytecount keeps the engine's Lemma 3 transfer accounting honest.
// Every byte that crosses a machine or disk boundary must be attributed to
// the task that moved it, through TaskCtx (CountShuffled / countSpillWrite /
// countSpillRead); the cluster-wide Metrics totals are derived from those
// task-level counts. Two rules:
//
//  1. Outside the engine, code may read the Metrics byte counters but never
//     mutate them directly (Add/Store/Swap/CompareAndSwap): a direct bump
//     inflates the cluster total without crediting any stage or task, so the
//     per-stage transfer profile the experiments report no longer sums to the
//     cluster totals.
//  2. Inside the engine (any package named "rdd", non-test files), a function
//     that serializes or spills shuffle data — calling encodeBlock /
//     decodeBlock / os.WriteFile / os.ReadFile — must attribute the bytes in
//     the same innermost function via a TaskCtx counter, or carry an explicit
//     `//distenc:accounted -- reason` directive naming where the accounting
//     happens instead.
package bytecount

import (
	"go/ast"
	"go/token"
	"go/types"

	"distenc/internal/analysis/directives"
	"distenc/internal/analysis/framework"
)

// Analyzer is the bytecount pass.
var Analyzer = &framework.Analyzer{
	Name: "bytecount",
	Doc:  "shuffle/spill byte traffic must be attributed through TaskCtx counters, never by poking Metrics directly",
	Run:  run,
}

// byteCounters are the Metrics fields that may only be mutated by the engine.
var byteCounters = map[string]bool{
	"BytesShuffled":  true,
	"DiskBytesRead":  true,
	"DiskBytesWrite": true,
}

// mutators are the atomic methods that change a counter's value.
var mutators = map[string]bool{
	"Add":            true,
	"Store":          true,
	"Swap":           true,
	"CompareAndSwap": true,
}

// ioCallees are the serialization/spill entry points rule 2 watches for, and
// counterCallees the attribution calls that satisfy it.
var ioCallees = map[string]bool{
	"encodeBlock": true,
	"decodeBlock": true,
	"WriteFile":   true, // os.WriteFile
	"ReadFile":    true, // os.ReadFile
}

var counterCallees = map[string]bool{
	"CountShuffled":   true,
	"countSpillWrite": true,
	"countSpillRead":  true,
}

func run(pass *framework.Pass) (any, error) {
	dirs := directives.Scan(pass.Fset, pass.Files)
	inEngine := pass.Pkg.Name() == "rdd"
	for _, file := range pass.Files {
		if !inEngine {
			checkMetricsWrites(pass, dirs, file)
			continue
		}
		if isTestFile(pass, file) {
			continue // unit tests exercise codecs without moving real bytes
		}
		checkAttribution(pass, dirs, file)
	}
	return nil, nil
}

func isTestFile(pass *framework.Pass, file *ast.File) bool {
	name := pass.Fset.Position(file.Pos()).Filename
	return len(name) >= len("_test.go") && name[len(name)-len("_test.go"):] == "_test.go"
}

// checkMetricsWrites enforces rule 1: no Metrics byte-counter mutation
// outside the engine.
func checkMetricsWrites(pass *framework.Pass, dirs *directives.Map, file *ast.File) {
	info := pass.TypesInfo
	var stack []ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		method, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || !mutators[method.Sel.Name] {
			return true
		}
		field, ok := ast.Unparen(method.X).(*ast.SelectorExpr)
		if !ok || !byteCounters[field.Sel.Name] {
			return true
		}
		obj, ok := info.Uses[field.Sel].(*types.Var)
		if !ok || !obj.IsField() || obj.Pkg() == nil || obj.Pkg().Name() != "rdd" {
			return true
		}
		if waived(dirs, stack) {
			return true
		}
		pass.Reportf(call.Pos(),
			"direct %s on rdd.Metrics.%s bypasses per-task attribution; route the bytes through TaskCtx.CountShuffled (or the engine's spill counters) so stage records still sum to cluster totals",
			method.Sel.Name, field.Sel.Name)
		return true
	})
}

// waived reports whether any enclosing statement carries an accounted
// directive.
func waived(dirs *directives.Map, stack []ast.Node) bool {
	for _, anc := range stack {
		if stmt, ok := anc.(ast.Stmt); ok && dirs.Has(stmt, "accounted") {
			return true
		}
	}
	return false
}

// fnScan is what one innermost function body contains.
type fnScan struct {
	firstIO    token.Pos // first unattributed-candidate IO call
	ioName     string
	hasIO      bool
	hasCounter bool
}

// checkAttribution enforces rule 2 inside the engine: walk every function
// (declaration or literal), pairing IO calls with counter calls within the
// same innermost body.
func checkAttribution(pass *framework.Pass, dirs *directives.Map, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil && !dirs.Has(n, "accounted") {
				scanBody(pass, dirs, n.Body)
			}
			return true // literals inside are visited via their own case
		case *ast.FuncLit:
			scanBody(pass, dirs, n.Body)
			return true
		}
		return true
	})
}

// scanBody examines one function body, ignoring nested literals (each is
// scanned on its own) and statements explicitly waived with an accounted
// directive.
func scanBody(pass *framework.Pass, dirs *directives.Map, body *ast.BlockStmt) {
	var s fnScan
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case ast.Stmt:
			if dirs.Has(n, "accounted") {
				return false
			}
		case *ast.CallExpr:
			name := calleeName(n)
			switch {
			case counterCallees[name]:
				s.hasCounter = true
			case ioCallees[name]:
				if !s.hasIO {
					s.firstIO, s.ioName, s.hasIO = n.Pos(), name, true
				}
			}
		}
		return true
	})
	if s.hasIO && !s.hasCounter {
		pass.Reportf(s.firstIO,
			"%s moves shuffle/spill bytes but this function never attributes them; call tc.CountShuffled / tc.countSpillWrite / tc.countSpillRead here, or mark the function //distenc:accounted -- reason if a caller counts these bytes",
			s.ioName)
	}
}

// calleeName returns the bare called-function name for idents, selectors, and
// generic instantiations (encodeBlock, decodeBlock[R], os.WriteFile, ...).
func calleeName(call *ast.CallExpr) string {
	fun := ast.Unparen(call.Fun)
	if ix, ok := fun.(*ast.IndexExpr); ok {
		fun = ast.Unparen(ix.X)
	}
	if ix, ok := fun.(*ast.IndexListExpr); ok {
		fun = ast.Unparen(ix.X)
	}
	switch f := fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}
