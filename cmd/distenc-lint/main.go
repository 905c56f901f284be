// Command distenc-lint runs the repo's engine-invariant analysis suite
// (rddcapture, hotalloc, bytecount, floatcmp, lockorder, goroutineowner),
// always as a whole.
//
// Two ways to invoke it:
//
//	go run ./cmd/distenc-lint ./...          # standalone, re-execs go vet
//	go vet -vettool=/path/to/distenc-lint ./...
package main

import (
	"distenc/internal/analysis"
	"distenc/internal/analysis/framework"
)

func main() {
	framework.Main(analysis.All()...)
}
