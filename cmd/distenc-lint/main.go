// Command distenc-lint runs the repo's engine-invariant analysis suite
// (rddcapture, hotalloc, bytecount, floatcmp, lockorder, goroutineowner,
// atomicfield).
//
// Two ways to invoke it:
//
//	go run ./cmd/distenc-lint ./...          # standalone, re-execs go vet
//	go vet -vettool=/path/to/distenc-lint ./...
//
// Pass -rddcapture, -hotalloc, -bytecount, -floatcmp, -lockorder,
// -goroutineowner, or -atomicfield to run a subset.
package main

import (
	"distenc/internal/analysis"
	"distenc/internal/analysis/framework"
)

func main() {
	framework.Main(analysis.All()...)
}
