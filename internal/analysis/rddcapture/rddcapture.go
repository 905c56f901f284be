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
//     `//distenc:capture-ok var... -- reason`, keeping every crossing of the
//     boundary auditable.
//
// The engine package itself (distenc/internal/rdd) is exempt: its internal
// closures ARE the machinery that emulates the boundary.
package rddcapture

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
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
		checkFile(pass, dirs, file)
	}
	return nil, nil
}

// taskClosure is one func literal passed into the rdd API.
type taskClosure struct {
	lit     *ast.FuncLit
	callee  string          // display name, e.g. "rdd.ShuffleMap"
	waivers map[string]bool // capture-ok variable names in scope for this closure
}

func checkFile(pass *framework.Pass, dirs *directives.Map, file *ast.File) {
	// First pass: find every closure that will run as a task. Waivers may sit
	// on the enclosing statement/call or directly on the literal.
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
		callee := rddCallee(pass, call)
		if callee == "" {
			return true
		}
		waivers := dirs.CaptureWaivers(call)
		for _, anc := range stack {
			if stmt, ok := anc.(ast.Stmt); ok {
				for v := range dirs.CaptureWaivers(stmt) {
					if waivers == nil {
						waivers = make(map[string]bool)
					}
					waivers[v] = true
				}
			}
		}
		for _, arg := range call.Args {
			if lit, ok := arg.(*ast.FuncLit); ok {
				lw := waivers
				for v := range dirs.CaptureWaivers(lit) {
					if lw == nil {
						lw = make(map[string]bool)
					}
					lw[v] = true
				}
				tasks = append(tasks, taskClosure{lit: lit, callee: callee, waivers: lw})
				isTask[lit] = true
			}
		}
		return true
	})

	for _, t := range tasks {
		checkClosure(pass, t, isTask)
	}
}

// rddCallee returns a display name when call invokes a function or method of
// the rdd package, and "" otherwise.
func rddCallee(pass *framework.Pass, call *ast.CallExpr) string {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.IndexExpr: // explicit instantiation rdd.MapPartitions[T, U](...)
		if sel, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
			id = sel.Sel
		} else if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = base
		}
	case *ast.IndexListExpr:
		if sel, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
			id = sel.Sel
		} else if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = base
		}
	}
	if id == nil {
		return ""
	}
	if obj, ok := pass.TypesInfo.Uses[id].(*types.Func); ok && obj.Pkg() != nil && obj.Pkg().Name() == "rdd" {
		return "rdd." + obj.Name()
	}
	return ""
}

func checkClosure(pass *framework.Pass, t taskClosure, isTask map[*ast.FuncLit]bool) {
	info := pass.TypesInfo
	lit := t.lit
	// declaredOutside reports whether obj is driver-side state relative to
	// this closure: a non-field variable declared outside the literal.
	declaredOutside := func(obj types.Object) bool {
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() {
			return false
		}
		return v.Pos() < lit.Pos() || v.Pos() >= lit.End()
	}

	written := make(map[*types.Var]token.Pos)     // first write site per captured var
	readMutable := make(map[*types.Var]token.Pos) // first mutable-capture site per var

	noteWrite := func(e ast.Expr, at token.Pos) {
		if id, ok := baseIdent(e); ok {
			if obj := info.Uses[id]; obj != nil && declaredOutside(obj) {
				v := obj.(*types.Var)
				if _, dup := written[v]; !dup {
					written[v] = at
				}
			}
		}
	}

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if inner, ok := n.(*ast.FuncLit); ok && inner != lit && isTask[inner] {
			// A nested task closure is analyzed on its own; skip it here so
			// its captures are not double-reported against this closure.
			return false
		}
		switch n := n.(type) {
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
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && info.Uses[id] != nil {
				if b, ok := info.Uses[id].(*types.Builtin); ok {
					switch b.Name() {
					case "copy", "clear", "append":
						if len(n.Args) > 0 {
							noteWrite(n.Args[0], n.Pos())
						}
					}
				}
			}
		case *ast.Ident:
			obj := info.Uses[n]
			if obj == nil || !declaredOutside(obj) {
				return true
			}
			v := obj.(*types.Var)
			if _, dup := readMutable[v]; !dup && !allowedCaptureType(v.Type(), nil) {
				readMutable[v] = n.Pos()
			}
		}
		return true
	})

	type finding struct {
		pos   token.Pos
		v     *types.Var
		write bool
	}
	var findings []finding
	for v, pos := range written {
		findings = append(findings, finding{pos, v, true})
	}
	for v, pos := range readMutable {
		if _, alsoWritten := written[v]; alsoWritten {
			continue // the write diagnostic subsumes the capture one
		}
		findings = append(findings, finding{pos, v, false})
	}
	sort.Slice(findings, func(i, j int) bool { return findings[i].pos < findings[j].pos })
	for _, f := range findings {
		if t.waivers[f.v.Name()] {
			continue
		}
		if f.write {
			pass.Reportf(f.pos,
				"task closure passed to %s writes to captured driver-side variable %q; on a real cluster the closure is shipped by value and the write is lost — return results instead",
				t.callee, f.v.Name())
		} else {
			pass.Reportf(f.pos,
				"task closure passed to %s captures driver-side mutable state %q (%s); pass it through the RDD, or waive an accounted read-only shipment with //distenc:capture-ok %s -- reason",
				t.callee, f.v.Name(), f.v.Type(), f.v.Name())
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
func allowedCaptureType(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return true // cycle through a pointer was already judged
	}
	if seen == nil {
		seen = make(map[types.Type]bool)
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return true
	case *types.Signature:
		// Function values are assumed pure; Spark serializes closures
		// transitively, which is beyond this pass.
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if !allowedCaptureType(u.Field(i).Type(), seen) {
				return false
			}
		}
		return true
	case *types.Array:
		return allowedCaptureType(u.Elem(), seen)
	default:
		// Slices, maps, pointers, chans, interfaces: shared mutable reach.
		return false
	}
}
