// Package bytecount keeps the engine's Lemma 3 transfer accounting honest.
// Every byte that crosses a machine or disk boundary is attributed to the
// task that moved it, through TaskCtx.CountShuffled (or the engine's spill
// counters); the cluster-wide Metrics totals are the sum of those task-level
// counts. Outside the engine, code may read the Metrics byte counters but
// never mutate them (Add/Store/Swap/CompareAndSwap): a direct bump inflates
// the cluster total without crediting any stage or task, so the per-stage
// transfer profile the experiments report no longer sums to the cluster
// totals.
package bytecount

import (
	"go/ast"
	"go/types"

	"distenc/internal/analysis/framework"
)

// Analyzer is the bytecount pass.
var Analyzer = &framework.Analyzer{
	Name: "bytecount",
	Doc:  "shuffle/spill byte traffic must be attributed through TaskCtx counters, never by poking Metrics directly",
	Run:  run,
}

// byteCounters are the Metrics fields only the engine may mutate, and
// mutators the atomic methods that change a counter's value.
var (
	byteCounters = map[string]bool{"BytesShuffled": true, "DiskBytesRead": true, "DiskBytesWrite": true}
	mutators     = map[string]bool{"Add": true, "Store": true, "Swap": true, "CompareAndSwap": true}
)

func run(pass *framework.Pass) (any, error) {
	if pass.Pkg.Name() == "rdd" {
		return nil, nil // the engine maintains the totals
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
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
			obj, ok := pass.TypesInfo.Uses[field.Sel].(*types.Var)
			if !ok || !obj.IsField() || obj.Pkg() == nil || obj.Pkg().Name() != "rdd" {
				return true
			}
			pass.Reportf(call.Pos(),
				"direct %s on rdd.Metrics.%s bypasses per-task attribution; route the bytes through TaskCtx.CountShuffled so stage records still sum to cluster totals",
				method.Sel.Name, field.Sel.Name)
			return true
		})
	}
	return nil, nil
}
