// Package analysis registers the repo's engine-invariant lint suite: static
// passes that pin down properties of the DisTenC port that the type system
// and the in-process rdd engine cannot enforce at runtime.
//
//	rddcapture — task closures must not share mutable driver state
//	             (the Spark serialization boundary)
//	hotalloc   — //distenc:hotpath functions stay allocation-free in loops
//	             (the fused MTTKRP flat-accumulator layout, Algorithm 3)
//	bytecount  — shuffle/spill bytes flow through TaskCtx attribution
//	             (Lemma 3 transfer accounting)
//	floatcmp   — no exact float equality outside audited sites
//	             (Eq. 17 tolerance-based convergence)
//	lockorder  — no blocking operation while a mutex is held, no
//	             lock-acquisition cycles (the PR 5 blockFor convoy class)
//	goroutineowner — every go statement ties to a registered lifetime:
//	             WaitGroup, drain, or //distenc:goroutine-owned-by
//	             (the PR 7 orphaned-worker class; the Quiesce drain contract)
//	atomicfield — a field accessed via sync/atomic anywhere is never read or
//	             written plainly elsewhere (exactly-once metrics counters)
//
// Run it as `go run ./cmd/distenc-lint ./...` or via
// `go vet -vettool=$(which distenc-lint) ./...`; see DESIGN.md's "Engine
// invariants & static enforcement" section for the full policy.
package analysis

import (
	"distenc/internal/analysis/atomicfield"
	"distenc/internal/analysis/bytecount"
	"distenc/internal/analysis/floatcmp"
	"distenc/internal/analysis/framework"
	"distenc/internal/analysis/goroutineowner"
	"distenc/internal/analysis/hotalloc"
	"distenc/internal/analysis/lockorder"
	"distenc/internal/analysis/rddcapture"
)

// All returns the full suite in deterministic order.
func All() []*framework.Analyzer {
	return []*framework.Analyzer{
		rddcapture.Analyzer,
		hotalloc.Analyzer,
		bytecount.Analyzer,
		floatcmp.Analyzer,
		lockorder.Analyzer,
		goroutineowner.Analyzer,
		atomicfield.Analyzer,
	}
}
