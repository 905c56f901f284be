// Package a exercises the lockorder analyzer: blocking operations under a
// held mutex, guard-unlock-return tracking, waivers, same-package blocking
// propagation, and lock-order cycles.
package a

import (
	"net"
	"sync"
	"time"

	"distenc/internal/framerpc"
)

type engine struct {
	mu    sync.Mutex
	cond  *sync.Cond
	wg    sync.WaitGroup
	work  chan int
	state int
}

func (e *engine) sendUnderLock() {
	e.mu.Lock()
	e.work <- 1 // want `channel send while holding engine\.mu`
	e.mu.Unlock()
}

func (e *engine) recvUnderLock() {
	e.mu.Lock()
	defer e.mu.Unlock()
	<-e.work // want `channel receive while holding engine\.mu`
}

func (e *engine) selectUnderLock(done chan struct{}) {
	e.mu.Lock()
	select { // want `select without a default case while holding engine\.mu`
	case v := <-e.work:
		e.state = v
	case <-done:
	}
	e.mu.Unlock()
}

// selectWithDefault never parks: a default case makes select non-blocking.
func (e *engine) selectWithDefault() {
	e.mu.Lock()
	select {
	case v := <-e.work:
		e.state = v
	default:
	}
	e.mu.Unlock()
}

func (e *engine) sleepUnderLock() {
	e.mu.Lock()
	defer e.mu.Unlock()
	time.Sleep(time.Millisecond) // want `time\.Sleep while holding engine\.mu`
}

func (e *engine) waitUnderLock() {
	e.mu.Lock()
	e.wg.Wait() // want `sync\.WaitGroup\.Wait while holding engine\.mu`
	e.mu.Unlock()
}

// writevUnderLock: a vectored socket write parks like any other.
func (e *engine) writevUnderLock(conn net.Conn, bufs net.Buffers) {
	e.mu.Lock()
	defer e.mu.Unlock()
	bufs.WriteTo(conn) // want `net Buffers\.WriteTo I/O while holding engine\.mu`
}

// rpcUnderLock: a framerpc dial or round trip is network I/O in another
// package — the shape of a connection pool that dials, or calls, while
// holding its lock.
func (e *engine) rpcUnderLock(c *framerpc.Conn) {
	e.mu.Lock()
	defer e.mu.Unlock()
	framerpc.Dial("127.0.0.1:1", nil, 0, time.Second) // want `framerpc\.Dial while holding engine\.mu`
	c.Call(1, nil, nil, 0, nil)                       // want `framerpc\.Call while holding engine\.mu`
}

// afterUnlock is clean: the blocking operations run with no lock held.
func (e *engine) afterUnlock() {
	e.mu.Lock()
	e.state++
	e.mu.Unlock()
	e.work <- 1
	time.Sleep(time.Millisecond)
}

// guardUnlockReturn: the early-return branch releases the lock and leaves,
// so the fall-through path still holds it.
func (e *engine) guardUnlockReturn(ok bool) {
	e.mu.Lock()
	if !ok {
		e.mu.Unlock()
		return
	}
	e.work <- 1 // want `channel send while holding engine\.mu`
	e.mu.Unlock()
}

// conditionalPair: the same condition guards Lock and Unlock; between the
// matching branches the blocking op runs only after the conditional unlock.
func (e *engine) conditionalPair(serial bool) {
	if serial {
		e.mu.Lock()
	}
	e.state++
	if serial {
		e.mu.Unlock()
	}
	<-e.work
}

// waived: deliberate blocking under the lock, with a reason on record.
func (e *engine) waived() {
	e.mu.Lock()
	//distenc:lockheld-ok -- wire-order test double: the lock IS the serializer
	e.work <- 1
	e.mu.Unlock()
}

// flush blocks (send); callers holding a lock inherit the finding.
func (e *engine) flush() {
	e.work <- 0
}

func (e *engine) callsBlockingUnderLock() {
	e.mu.Lock()
	e.flush() // want `blocking call to flush while holding engine\.mu`
	e.mu.Unlock()
}

// drain blocks only through flush: blocking propagates through calls.
func (e *engine) drain() {
	e.flush()
}

func (e *engine) callsTransitivelyBlockingUnderLock() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.drain() // want `blocking call to drain while holding engine\.mu`
}

// goroutine bodies are independent roots: the spawner's lock is not held
// inside the closure.
func (e *engine) spawnClean() {
	e.mu.Lock()
	e.state++
	e.mu.Unlock()
	//distenc:goroutine-owned-by test-fixture -- ownership checked by goroutineowner, not here
	go func() {
		e.work <- 1
	}()
}

type registry struct {
	amu sync.Mutex
	bmu sync.Mutex
}

// lockAB and lockBA acquire the two locks in opposite orders: a classic
// deadlock-by-interleaving. Both edges are reported.
func (r *registry) lockAB() {
	r.amu.Lock()
	r.bmu.Lock() // want `lock-order cycle: registry\.bmu is acquired while registry\.amu is held`
	r.bmu.Unlock()
	r.amu.Unlock()
}

func (r *registry) lockBA() {
	r.bmu.Lock()
	r.amu.Lock() // want `lock-order cycle: registry\.amu is acquired while registry\.bmu is held`
	r.amu.Unlock()
	r.bmu.Unlock()
}

type nested struct {
	outer sync.Mutex
	inner sync.Mutex
}

// consistent nesting is fine: outer→inner only, no cycle.
func (n *nested) consistent() {
	n.outer.Lock()
	n.inner.Lock()
	n.inner.Unlock()
	n.outer.Unlock()
}
