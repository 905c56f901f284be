// Package rddcapture enforces the Spark serialization boundary the in-process
// rdd engine cannot enforce at runtime: closures handed to rdd
// transformations run as tasks, and on a real cluster they would be
// serialized and shipped — they must not share mutable driver state.
//
// Two rules, checked on every func literal passed into the rdd API:
//
//  1. A task closure must never WRITE to a captured driver-side variable
//     (any type — a captured counter silently no-ops on real executors).
//     Results flow through return values.
//  2. A task closure must not capture driver-side mutable values (slices,
//     maps, pointers, chans, interfaces, or structs containing them) even
//     read-only; plain function values are the one exception. The engine has
//     no broadcast variables: read-only shipment that the algorithm accounts
//     for explicitly (e.g. the MTTKRP factor-row shipping charged via
//     TaskCtx.CountShuffled) is waived per variable with
//     `//distenc:capture-ok var... -- reason` on a statement enclosing the
//     call, keeping every crossing of the boundary auditable.
//
// The engine package itself (distenc/internal/rdd) is exempt: its internal
// closures ARE the machinery that emulates the boundary.
package rddcapture

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"strings"

	"distenc/internal/analysis/directives"
	"distenc/internal/analysis/framework"
)

// Analyzer is the rddcapture pass.
var Analyzer = &framework.Analyzer{
	Name: "rddcapture",
	Doc:  "task closures passed to rdd transformations must not capture or write driver-side mutable state",
	Run:  run,
}

// enginePath is the package whose func literals are exempt (the engine) and
// whose API calls mark their closure arguments as tasks.
const enginePath = "distenc/internal/rdd"

func run(pass *framework.Pass) (any, error) {
	if strings.HasPrefix(pass.Pkg.Path(), enginePath) || pass.Pkg.Name() == "rdd" {
		return nil, nil
	}
	dirs := directives.Scan(pass.Fset, pass.Files)
	for _, file := range pass.Files {
		// Find every closure handed to the rdd API, with the capture-ok
		// waivers on the statements that enclose the call.
		var tasks []taskClosure
		isTask := make(map[*ast.FuncLit]bool)
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
			fn := framework.Callee(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Name() != "rdd" {
				return true
			}
			waivers := map[string]bool{}
			for _, anc := range stack {
				if stmt, ok := anc.(ast.Stmt); ok {
					maps.Copy(waivers, dirs.CaptureWaivers(stmt))
				}
			}
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.FuncLit); ok {
					tasks = append(tasks, taskClosure{lit: lit, callee: "rdd." + fn.Name(), waivers: waivers})
					isTask[lit] = true
				}
			}
			return true
		})
		for _, t := range tasks {
			checkClosure(pass, t, isTask)
		}
	}
	return nil, nil
}

// taskClosure is one func literal passed into the rdd API.
type taskClosure struct {
	lit     *ast.FuncLit
	callee  string          // display name, e.g. "rdd.ShuffleMap"
	waivers map[string]bool // capture-ok variable names in scope for this closure
}

func checkClosure(pass *framework.Pass, t taskClosure, isTask map[*ast.FuncLit]bool) {
	info := pass.TypesInfo
	lit := t.lit
	// outside returns the driver-side variable id names — a non-field
	// variable declared outside the literal — or nil.
	outside := func(id *ast.Ident) *types.Var {
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || (v.Pos() >= lit.Pos() && v.Pos() < lit.End()) {
			return nil
		}
		return v
	}
	written := make(map[*types.Var]token.Pos)     // first write site per captured var
	readMutable := make(map[*types.Var]token.Pos) // first mutable-capture site per var
	noteWrite := func(e ast.Expr, at token.Pos) {
		if id, ok := baseIdent(e); ok {
			if v := outside(id); v != nil {
				if _, dup := written[v]; !dup {
					written[v] = at
				}
			}
		}
	}

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A nested task closure is analyzed on its own; skip it here so
			// its captures are not double-reported against this closure.
			return !isTask[n]
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				noteWrite(lhs, n.TokPos)
			}
		case *ast.IncDecStmt:
			noteWrite(n.X, n.TokPos)
		case *ast.RangeStmt:
			if n.Key != nil {
				noteWrite(n.Key, n.For)
			}
			if n.Value != nil {
				noteWrite(n.Value, n.For)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
					noteWrite(id, n.OpPos)
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && len(n.Args) > 0 {
				if b, ok := info.Uses[id].(*types.Builtin); ok && (b.Name() == "copy" || b.Name() == "clear" || b.Name() == "append") {
					noteWrite(n.Args[0], n.Pos())
				}
			}
		case *ast.Ident:
			if v := outside(n); v != nil && !allowedCaptureType(v.Type()) {
				if _, dup := readMutable[v]; !dup {
					readMutable[v] = n.Pos()
				}
			}
		}
		return true
	})

	for v, pos := range written {
		if !t.waivers[v.Name()] {
			pass.Reportf(pos,
				"task closure passed to %s writes to captured driver-side variable %q; on a real cluster the closure is shipped by value and the write is lost — return results instead",
				t.callee, v.Name())
		}
	}
	for v, pos := range readMutable {
		// A write diagnostic subsumes the capture one.
		if _, alsoWritten := written[v]; !alsoWritten && !t.waivers[v.Name()] {
			pass.Reportf(pos,
				"task closure passed to %s captures driver-side mutable state %q (%s); pass it through the RDD, or waive an accounted read-only shipment with //distenc:capture-ok %s -- reason",
				t.callee, v.Name(), v.Type(), v.Name())
		}
	}
}

// baseIdent peels indexing, field selection, derefs and parens off an
// assignable expression, returning the root identifier: writes through any of
// these reach memory the driver can also see.
func baseIdent(e ast.Expr) (*ast.Ident, bool) {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x, true
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil, false
		}
	}
}

// allowedCaptureType reports whether a value of type t may be captured
// read-only: immutable shapes and plain funcs. Everything reference-like
// needs an explicit waiver.
func allowedCaptureType(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return true
	case *types.Signature:
		// Function values are assumed pure; Spark serializes closures
		// transitively, which is beyond this pass.
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if !allowedCaptureType(u.Field(i).Type()) {
				return false
			}
		}
		return true
	case *types.Array:
		return allowedCaptureType(u.Elem())
	default:
		// Slices, maps, pointers, chans, interfaces: shared mutable reach.
		return false
	}
}
