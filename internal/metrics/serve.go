// Serving-plane rollups: the per-model counters distenc-serve accumulates
// while answering entry-reconstruction queries, in the same
// snapshot-and-render idiom as the engine's per-stage rollups — live atomic
// counters in the serving layer, an immutable snapshot struct here, one
// String() table for humans, JSON tags for the admin plane.
package metrics

import (
	"fmt"
	"time"
)

// ServeModelStats is one registered model's rollup: identity (dims, rank,
// training iterations), query volume and the lifecycle counters (hot swaps,
// background refreshes) that explain why the model a client saw a second ago
// may answer slightly differently now.
type ServeModelStats struct {
	Model string `json:"model"`
	Dims  []int  `json:"dims"`
	Rank  int    `json:"rank"`
	// Iter is the number of training iterations behind the served factors —
	// it grows when the online-refresh loop folds in new observations.
	Iter int `json:"iter"`
	// Queries counts batch predict requests; Cells counts individual entry
	// reconstructions (a batch of 64 cells is 1 query, 64 cells).
	Queries int64 `json:"queries"`
	Cells   int64 `json:"cells"`
	// Swaps counts registry replacements under this name (admin reloads and
	// refresh promotions); Refreshes counts background warm-start refreshes.
	Swaps     int64     `json:"swaps"`
	Refreshes int64     `json:"refreshes"`
	LoadedAt  time.Time `json:"loadedAt"`
}

// HitRate returns 0: the row LRU it reported on was deleted in PR 28. The
// method stays because benchmark/ calls it, and leaves with ROADMAP item 2's
// phase 2.
func (s ServeModelStats) HitRate() float64 { return 0 }

// ServeSnapshot is the registry-wide rollup, one row per model.
type ServeSnapshot []ServeModelStats

// String renders the rollup as a table, matching the engine's Summary style.
func (s ServeSnapshot) String() string {
	if len(s) == 0 {
		return "no models loaded\n"
	}
	out := fmt.Sprintf("%-16s %-14s %4s %5s %10s %10s %5s %5s\n",
		"model", "dims", "rank", "iter", "queries", "cells", "swaps", "refr")
	for _, m := range s {
		out += fmt.Sprintf("%-16s %-14s %4d %5d %10d %10d %5d %5d\n",
			m.Model, fmt.Sprint(m.Dims), m.Rank, m.Iter, m.Queries, m.Cells, m.Swaps, m.Refreshes)
	}
	return out
}
