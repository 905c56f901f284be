// Package analysis registers the repo's engine-invariant lint suite: static
// passes that pin down properties of the DisTenC port that the type system,
// go vet and the Tier-1 tests do not.
//
//	rddcapture — task closures must not share mutable driver state
//	             (the Spark serialization boundary)
//	hotalloc   — //distenc:hotpath functions draw scratch from the task
//	             arena (the fused MTTKRP kernel and its stage, Algorithm 3)
//	bytecount  — code outside the engine never mutates the Metrics byte
//	             counters (Lemma 3 transfer accounting)
//	floatcmp   — no exact float equality outside audited functions
//	             (Eq. 17 tolerance-based convergence)
//	lockorder  — no blocking operation while a mutex is held, no
//	             lock-acquisition cycles (the PR 5 blockFor convoy class)
//	goroutineowner — every go statement ties to a registered lifetime:
//	             WaitGroup or //distenc:goroutine-owned-by
//	             (the PR 7 orphaned-worker class; the Quiesce drain contract)
//
// Each rule is pinned by seeded defects in the real tree that only it
// catches (TestAnalyzersCatchSeededDefects). Run the suite as
// `go run ./cmd/distenc-lint ./...` or via
// `go vet -vettool=$(which distenc-lint) ./...`; see DESIGN.md's "Engine
// invariants & static enforcement" section for the full policy.
package analysis

import (
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
	}
}
