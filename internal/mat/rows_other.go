//go:build !amd64 || race

package mat

// hasVecRows is false: off amd64, and under the race detector (which does
// not instrument assembly), AxpyRows and GramAddUpper run their Go bodies.
const hasVecRows = false

func axpyRowsAVX2(dst, x, b []float64) { panic("mat: this build has no vector row bodies") }

func gramAddUpperAVX2(g, rows []float64, r int) { panic("mat: this build has no vector row bodies") }
