// Package cpu is the one CPU-feature probe of the packages with vector
// bodies (core, mat, graph, sptensor), and the one switch that sends the
// driver pass's loops and the predict kernel to their Go bodies.
package cpu

// AVX2 reports whether this CPU and OS run AVX2 code: the CPU has AVX and
// AVX2, and the OS saves the YMM state. It is probed once, at init. Off amd64
// it is false.
func AVX2() bool { return avx2 }

// GoBodies, when set, makes every loop with an AVX2 body outside the fused
// kernel run its Go body instead: mat's AxpyRows and GramAddUpper, graph's
// Laplacian.BStep and sptensor's Kruskal.AtCells. A test hook read at each
// dispatch, so a test in core, mat, graph or sptensor runs both bodies on one
// host; no command, option or environment variable sets it.
var GoBodies bool
