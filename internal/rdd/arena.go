package rdd

import "sync"

// Arena is a per-task bump allocator for hot-path scratch memory. Tasks
// obtain one via TaskCtx.Arena; the cluster pools arenas keyed by (machine,
// partition), in any stage: the map and reduce tasks of partition P, both
// preferring machine P mod M, share one, and iteration i+1's tasks get back
// the slabs iteration i's used. Reset rewinds the bump offsets without
// freeing the backing arrays, and checkin grows them to the cycle's
// high-water demand, so steady-state iterations allocate nothing.
//
// Lifetime contract: memory handed out by an arena is valid until the next
// task of the same partition on the same machine checks it out, in any
// stage, and Resets it. That makes it safe for (a) scratch consumed within
// the attempt and (b) task outputs the driver consumes before it runs the
// next stage over those partitions (collect/reduce results), but NOT for
// anything with a longer life: cached RDD partitions stay on the ordinary
// heap, and a map task's output is encoded into its exchange's blocks before
// the reduce task resets the arena. Mark/Rewind give a region a shorter life
// than the attempt: the shuffle reader rewinds each decoded block once the
// reduce side has folded it.
//
// Concurrency: an arena is owned by exactly one task attempt at a time.
// Speculative duplicate attempts run on distinct machines and thus draw
// distinct arenas, and every attempt checks its arena in before its stage
// returns. A lineage recompute inside an attempt shares the attempt's arena
// without a Reset, so closures that may run in one attempt keep their stash
// entries under distinct keys.
type Arena struct {
	f64 arenaSlab[float64]
	i32 arenaSlab[int32]
	// stash holds long-lived typed scratch (record buffers, slice-of-slice
	// containers) that survives Reset: closures key their scratch structs by
	// a unique string and reuse them across iterations.
	stash map[string]any
}

// arenaSlab is one typed bump region. alloc grows geometrically on overflow
// (abandoning the old backing — outstanding slices stay valid, they just no
// longer share it); trim consolidates to the cycle's total demand at checkin
// so the next cycle is served by a single allocation-free backing.
type arenaSlab[T any] struct {
	buf  []T
	off  int
	need int // elements live right now, across grows (rewinds give them back)
	high int // the cycle's high-water need: what trim sizes the backing to
}

// alloc hands out n elements, cleared like make's when zero is set.
func (s *arenaSlab[T]) alloc(n int, zero bool) []T {
	s.need += n
	s.high = max(s.high, s.need)
	if s.off+n > len(s.buf) {
		c := 2 * len(s.buf)
		if c < s.need {
			c = s.need
		}
		if c < 64 {
			c = 64
		}
		s.buf = make([]T, c)
		s.off = n
		return s.buf[:n:n]
	}
	out := s.buf[s.off : s.off+n : s.off+n]
	s.off += n
	if zero {
		clear(out)
	}
	return out
}

func (s *arenaSlab[T]) reset() { s.off, s.need, s.high = 0, 0, 0 }

func (s *arenaSlab[T]) trim() {
	if s.high > len(s.buf) {
		s.buf = make([]T, s.high)
		s.off = len(s.buf) // unusable until the next reset
	}
}

// slabMark is one slab's position: bump offset, live need, and the backing's
// length, which identifies the backing (a grow always lengthens it).
type slabMark struct{ off, need, size int }

func (s *arenaSlab[T]) mark() slabMark { return slabMark{s.off, s.need, len(s.buf)} }

// rewind frees everything allocated since m. If the slab grew in between, the
// marked offset belongs to the abandoned backing (which keeps what was live at
// the mark) and the current one holds only memory being freed: it restarts.
func (s *arenaSlab[T]) rewind(m slabMark) {
	if len(s.buf) != m.size {
		m.off = 0
	}
	s.off, s.need = m.off, m.need
}

// ArenaMark is a position in an arena, taken by Mark and restored by Rewind.
type ArenaMark struct{ f64, i32 slabMark }

// Mark returns the arena's current position.
func (a *Arena) Mark() ArenaMark { return ArenaMark{a.f64.mark(), a.i32.mark()} }

// Rewind frees every allocation made since m was taken; memory handed out
// before the mark is untouched. Marks do not survive Reset.
func (a *Arena) Rewind(m ArenaMark) {
	a.f64.rewind(m.f64)
	a.i32.rewind(m.i32)
}

// ReserveFloat64s makes a task's next n float64s one backing's worth: if
// nothing is drawn and the backing is shorter, it is replaced. A task that
// knows its demand skips the geometric growth, and the slack it leaves.
func (a *Arena) ReserveFloat64s(n int) {
	if s := &a.f64; s.need == 0 && len(s.buf) < n {
		s.buf, s.off = make([]float64, n), 0
	}
}

// Float64s returns a zeroed arena-backed []float64 of length n.
func (a *Arena) Float64s(n int) []float64 { return a.f64.alloc(n, true) }

// Int32s returns a zeroed arena-backed []int32 of length n.
func (a *Arena) Int32s(n int) []int32 { return a.i32.alloc(n, true) }

// Float64sDirty is Float64s without the clear — the contents are whatever
// the previous cycle left — for slabs the caller overwrites in full (decoded
// shuffle payloads), where zero-filling first would touch every byte twice.
func (a *Arena) Float64sDirty(n int) []float64 { return a.f64.alloc(n, false) }

// Reset rewinds every slab to empty without freeing backing memory. The
// stash survives. Called by the cluster when the arena is checked out to a
// new task attempt — user code normally never calls it.
func (a *Arena) Reset() {
	a.f64.reset()
	a.i32.reset()
}

// trim consolidates each slab's backing to the finished cycle's high-water
// demand, so the next same-shape cycle allocates nothing.
func (a *Arena) trim() {
	a.f64.trim()
	a.i32.trim()
}

// Stash returns the value stored under key, or nil. Stash entries survive
// Reset; use them for typed scratch containers the slab types can't express.
func (a *Arena) Stash(key string) any {
	return a.stash[key]
}

// SetStash stores v under key (see Stash).
func (a *Arena) SetStash(key string, v any) {
	if a.stash == nil {
		a.stash = make(map[string]any)
	}
	a.stash[key] = v
}

// arenaKey identifies one pooled arena lineage: a task of the same
// partition re-running on the same machine, in any stage, gets the same
// slabs back.
type arenaKey struct{ machine, part int }

// arenaPool is the cluster-wide free list of arenas per key.
type arenaPool struct {
	mu    sync.Mutex
	byKey map[arenaKey][]*Arena
}

func (ap *arenaPool) checkout(k arenaKey) *Arena {
	ap.mu.Lock()
	defer ap.mu.Unlock()
	if list := ap.byKey[k]; len(list) > 0 {
		a := list[len(list)-1]
		ap.byKey[k] = list[:len(list)-1]
		return a
	}
	return &Arena{}
}

func (ap *arenaPool) checkin(k arenaKey, a *Arena) {
	a.trim()
	ap.mu.Lock()
	defer ap.mu.Unlock()
	if ap.byKey == nil {
		ap.byKey = make(map[arenaKey][]*Arena)
	}
	ap.byKey[k] = append(ap.byKey[k], a)
}

// PooledArenaFloat64s returns the float64 elements backing the arenas pooled
// between tasks: per (machine, partition), the largest demand of one task.
func (c *Cluster) PooledArenaFloat64s() (n int) {
	c.arenas.mu.Lock()
	defer c.arenas.mu.Unlock()
	for _, list := range c.arenas.byKey {
		for _, a := range list {
			n += len(a.f64.buf)
		}
	}
	return n
}
