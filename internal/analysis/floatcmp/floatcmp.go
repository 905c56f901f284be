// Package floatcmp flags == and != between floating-point values. In an
// iterative solver, exact float equality is almost always a latent bug: ALS
// residuals, RMSE deltas, and convergence checks (Eq. 17's termination test)
// must compare against tolerances, and value round-trips through the binary
// codec must compare bit patterns explicitly.
//
// Allowed without annotation:
//   - comparison against a compile-time constant (sentinel checks such as
//     `lambda == 0` or `val != 0` are exact by construction);
//   - the NaN idiom `x != x`;
//   - intentional bit-exact checks written as math.Float64bits(a) ==
//     math.Float64bits(b), which compare integers and never reach this pass.
//
// Anything else needs a `//distenc:floatcmp-ok -- reason` directive on the
// enclosing function, keeping every exact comparison a reviewed decision.
package floatcmp

import (
	"go/ast"
	"go/token"
	"go/types"

	"distenc/internal/analysis/directives"
	"distenc/internal/analysis/framework"
)

// Analyzer is the floatcmp pass.
var Analyzer = &framework.Analyzer{
	Name: "floatcmp",
	Doc:  "no ==/!= on floats outside tolerance helpers, constants, and the NaN idiom",
	Run:  run,
}

func run(pass *framework.Pass) (any, error) {
	dirs := directives.Scan(pass.Fset, pass.Files)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && dirs.Has(fd, "floatcmp-ok") {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				cmp, ok := n.(*ast.BinaryExpr)
				if !ok || (cmp.Op != token.EQL && cmp.Op != token.NEQ) {
					return true
				}
				if !isFloat(pass, cmp.X) && !isFloat(pass, cmp.Y) {
					return true
				}
				if isConstant(pass, cmp.X) || isConstant(pass, cmp.Y) {
					return true
				}
				if cmp.Op == token.NEQ && sameExpr(cmp.X, cmp.Y) {
					return true // the portable NaN test
				}
				pass.Reportf(cmp.OpPos,
					"exact %s between floats; compare |a-b| against a tolerance, use math.Float64bits for intentional bit equality, or waive the function with //distenc:floatcmp-ok -- reason",
					cmp.Op)
				return true
			})
		}
	}
	return nil, nil
}

// isFloat reports whether e has (or defaults to) a floating or complex type.
func isFloat(pass *framework.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}

// isConstant reports whether e is a compile-time constant expression.
func isConstant(pass *framework.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.Value != nil
}

// sameExpr conservatively matches the `x != x` NaN idiom: both sides must be
// the same plain identifier or selector chain.
func sameExpr(a, b ast.Expr) bool {
	switch x := ast.Unparen(a).(type) {
	case *ast.Ident:
		y, ok := ast.Unparen(b).(*ast.Ident)
		return ok && x.Name == y.Name
	case *ast.SelectorExpr:
		y, ok := ast.Unparen(b).(*ast.SelectorExpr)
		return ok && x.Sel.Name == y.Sel.Name && sameExpr(x.X, y.X)
	case *ast.IndexExpr:
		y, ok := ast.Unparen(b).(*ast.IndexExpr)
		return ok && sameExpr(x.X, y.X) && sameExpr(x.Index, y.Index)
	}
	return false
}
