// Package cpu is the one CPU-feature probe of the packages with vector
// bodies (core, mat, graph, sptensor), and the one switch that sends every
// vector body to its Go twin.
package cpu

// AVX2 reports whether this CPU and OS run AVX2 code: the CPU has AVX and
// AVX2, and the OS saves the YMM state. It is probed once, at init. Off amd64
// it is false.
func AVX2() bool { return avx2 }

// GoBodies, when set, makes every loop with an AVX2 body run its Go body
// instead: core's fused MTTKRP kernel, mat's AxpyRows and GramAddUpper,
// graph's Laplacian.BStep and sptensor's Kruskal.AtCells. It is the one test
// hook for all five, read at each dispatch, so a test in core, mat, graph or
// sptensor runs both bodies on one host, and every /ref sibling of the
// benchmark ledgers that times the Go bodies sets it; no command, option or
// environment variable sets it.
var GoBodies bool
