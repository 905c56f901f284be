//go:build !race

package mat

import "distenc/internal/cpu"

// hasVecRows reports whether this CPU and OS run the AVX2 bodies of AxpyRows
// and GramAddUpper; -race builds get rows_other.go instead.
var hasVecRows = cpu.AVX2()

// axpyRowsAVX2 is AxpyRows four columns a step, in rows_amd64.s. The caller
// guarantees len(b) ≥ len(x)·len(dst).
//
//go:noescape
func axpyRowsAVX2(dst, x, b []float64)

// gramAddUpperAVX2 is GramAddUpper four columns a step, in rows_amd64.s. The
// caller guarantees len(g) = r·r and len(rows) a multiple of r ≥ 1.
//
//go:noescape
func gramAddUpperAVX2(g, rows []float64, r int)
