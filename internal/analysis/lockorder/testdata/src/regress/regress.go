// Package regress reproduces the historical PR 5 `blockFor` lock convoy:
// the shuffle exchange held its mutex across a whole-lineage map-stage
// recompute, so every concurrent reduce fetcher — of any map output, not
// just the missing one — queued behind a single network replay. The fixed
// shape (single-flight: register interest under the lock, recompute outside
// it) must stay clean.
package regress

import "sync"

type blockState struct {
	data  []byte
	ready chan struct{}
}

type exchange struct {
	mu     sync.Mutex
	blocks map[int]*blockState
	stage  chan []byte
}

// recompute replays the whole upstream lineage: it waits for a map stage.
func (e *exchange) recompute(mp int) *blockState {
	return &blockState{data: <-e.stage}
}

// blockForConvoy is the buggy PR 5 shape: recompute runs under e.mu.
func (e *exchange) blockForConvoy(mp int) []byte {
	e.mu.Lock()
	defer e.mu.Unlock()
	bs, ok := e.blocks[mp]
	if ok {
		return bs.data
	}
	bs = e.recompute(mp) // want `blocking call to recompute while holding exchange\.mu \(it performs a blocking operation\)`
	e.blocks[mp] = bs
	return bs.data
}

// blockForSingleFlight is the fixed shape: only map bookkeeping happens
// under the lock; the recompute and the wait both run outside it.
func (e *exchange) blockForSingleFlight(mp int) []byte {
	e.mu.Lock()
	bs, ok := e.blocks[mp]
	if !ok {
		bs = &blockState{ready: make(chan struct{})}
		e.blocks[mp] = bs
		e.mu.Unlock()
		got := e.recompute(mp)
		e.mu.Lock()
		bs.data = got.data
		e.mu.Unlock()
		close(bs.ready)
		return bs.data
	}
	e.mu.Unlock()
	<-bs.ready
	return bs.data
}
