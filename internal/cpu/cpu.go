// Package cpu is the one CPU-feature probe the packages with vector bodies
// share (internal/core, internal/mat, internal/graph), and the one switch
// that sends the driver pass's loops to their Go bodies.
package cpu

// AVX2 reports whether this CPU and OS run AVX2 code: the CPU has AVX and
// AVX2, and the OS saves the YMM state. It is probed once, at init. Off amd64
// it is false.
func AVX2() bool { return avx2 }

// GoBodies, when set, makes every loop of the driver pass with an AVX2 body
// run its Go body instead: mat's AxpyRows and GramAddUpper and graph's
// Laplacian.BStep. It is a test hook, read at each dispatch, so a test in
// core, mat or graph can run both bodies on one host; no command, option or
// environment variable sets it.
var GoBodies bool
