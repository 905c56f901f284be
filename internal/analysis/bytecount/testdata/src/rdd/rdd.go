// Fixture: the engine package (the analyzer keys on the package name "rdd")
// folds each committed task's counts into the totals itself, and is exempt.
package rdd

import "sync/atomic"

type Metrics struct {
	BytesShuffled atomic.Int64
}

type TaskCtx struct{ shuffled int64 }

func (tc *TaskCtx) commit(m *Metrics) {
	m.BytesShuffled.Add(tc.shuffled)
}
