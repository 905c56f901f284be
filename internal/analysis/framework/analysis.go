// Package framework is a dependency-free miniature of golang.org/x/tools'
// go/analysis: just enough driver surface to write the repo's own vet passes
// without importing x/tools (the module is intentionally stdlib-only). The
// types mirror go/analysis field-for-field where they overlap, so the
// analyzers port to the real framework by swapping an import path.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static-analysis pass.
type Analyzer struct {
	// Name is the flag/diagnostic label, e.g. "rddcapture".
	Name string
	// Doc is the one-paragraph help text; its first line is the summary.
	Doc string
	// Run executes the pass over one package and reports diagnostics
	// through pass.Report. The result value is unused by this driver but
	// kept for go/analysis signature compatibility.
	Run func(pass *Pass) (any, error)
}

func (a *Analyzer) String() string { return a.Name }

// Pass carries one package's parsed and type-checked representation to an
// analyzer, exactly like analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
}

// Diagnostic is one finding, anchored at a position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Validate checks the analyzer set for driver-breaking mistakes (missing
// names or run functions, duplicate names).
func Validate(analyzers []*Analyzer) error {
	seen := map[string]bool{}
	for _, a := range analyzers {
		if a == nil || a.Name == "" {
			return fmt.Errorf("framework: analyzer with empty name")
		}
		if a.Run == nil {
			return fmt.Errorf("framework: analyzer %s has no Run function", a.Name)
		}
		if seen[a.Name] {
			return fmt.Errorf("framework: duplicate analyzer name %s", a.Name)
		}
		seen[a.Name] = true
	}
	return nil
}

// Callee returns the function a call statically names — a function or
// method, explicitly instantiated or not — or nil for calls through values
// and for conversions.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}
	switch f := fun.(type) {
	case *ast.Ident:
		fn, _ := info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

// RecvName returns the name of fn's receiver type, pointer or not, or "" for
// a function or a method of an unnamed type.
func RecvName(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}
