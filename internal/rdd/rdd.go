package rdd

import (
	"fmt"
	"sync"
)

// dep is anything that must be materialized (on the driver, stage by stage)
// before a downstream stage may compute partitions that read from it. Shuffle
// exchanges are the only wide dependency; narrow chains propagate their
// parents' deps.
type dep interface {
	ensure() error
}

// RDD is a lazy, partitioned, immutable dataset with lineage: computing a
// partition re-runs the chain of transformations that defined it, exactly
// like Spark's RDD abstraction the paper builds on (§III-F).
type RDD[T any] struct {
	c       *Cluster
	name    string
	parts   int
	deps    []dep
	compute func(tc *TaskCtx, p int) ([]T, error)

	cacheMu sync.Mutex
	cached  bool
	cparts  []cachedPart[T]
	evictID int64  // KillMachine eviction registration while cached
	cleanup func() // extra teardown on Unpersist (ShuffleMap: retire the exchange)
}

type cachedPart[T any] struct {
	mu      sync.Mutex
	done    bool
	items   []T
	machine int
	bytes   int64
}

// Parallelize distributes data over parts partitions (round-robin by block),
// the engine's equivalent of sc.parallelize.
func Parallelize[T any](c *Cluster, name string, data []T, parts int) *RDD[T] {
	if parts <= 0 {
		parts = c.cfg.Machines * c.cfg.CoresPerMachine
	}
	blocks := make([][]T, parts)
	for p := range blocks {
		lo := len(data) * p / parts
		hi := len(data) * (p + 1) / parts
		blocks[p] = data[lo:hi]
	}
	return FromPartitions(c, name, blocks)
}

// FromPartitions wraps pre-partitioned data as an RDD (used by the tensor
// loaders, which place blocks according to the greedy partitioner).
func FromPartitions[T any](c *Cluster, name string, blocks [][]T) *RDD[T] {
	return &RDD[T]{
		c:     c,
		name:  name,
		parts: len(blocks),
		compute: func(tc *TaskCtx, p int) ([]T, error) {
			return blocks[p], nil
		},
	}
}

// ensureDeps materializes every shuffle exchange in r's lineage, bottom-up.
// It must be called on the driver (never inside a task) — running a stage
// inside a task slot could exhaust a machine's cores and deadlock, which is
// why wide dependencies are staged explicitly, as in Spark's DAG scheduler.
func (r *RDD[T]) ensureDeps() error {
	for _, d := range r.deps {
		if err := d.ensure(); err != nil {
			return err
		}
	}
	return nil
}

// computePartition resolves the cache, then lineage.
func (r *RDD[T]) computePartition(tc *TaskCtx, p int) ([]T, error) {
	r.cacheMu.Lock()
	cached := r.cached
	r.cacheMu.Unlock()
	if !cached {
		return r.compute(tc, p)
	}
	cp := &r.cparts[p]
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if cp.done {
		return cp.items, nil
	}
	items, err := r.compute(tc, p)
	if err != nil {
		return nil, err
	}
	if r.c.machineDead(tc.Machine) {
		// The machine died under this task: the attempt will be discarded
		// and retried, so don't pin its output to a dead machine's cache.
		return items, nil
	}
	size, err := partitionBytes(items)
	if err == nil {
		err = r.c.charge(tc.Machine, size)
	}
	if err != nil {
		return nil, fmt.Errorf("rdd: caching partition %d of %s: %w", p, r.name, err)
	}
	cp.done = true
	cp.items = items
	cp.machine = tc.Machine
	cp.bytes = size
	return items, nil
}

// Cache marks the RDD for in-memory persistence: the first computation of
// each partition stores it (charging machine memory with what its elements,
// which must be Sizers, declare), later computations reuse it. In
// ModeMapReduce this is a no-op — Hadoop's lack of cross-stage in-memory reuse
// is the behaviour the paper contrasts Spark against.
func (r *RDD[T]) Cache() *RDD[T] {
	if r.c.cfg.Mode == ModeMapReduce {
		return r
	}
	r.cacheMu.Lock()
	defer r.cacheMu.Unlock()
	if !r.cached {
		r.cached = true
		r.cparts = make([]cachedPart[T], r.parts)
		r.evictID = r.c.registerEvictor(r)
	}
	return r
}

// Unpersist drops cached partitions and releases their memory; on a ShuffleMap
// result it also retires the exchange the RDD reads.
func (r *RDD[T]) Unpersist() {
	r.cacheMu.Lock()
	if r.cached {
		for p := range r.cparts {
			cp := &r.cparts[p]
			cp.mu.Lock()
			if cp.done {
				r.c.release(cp.machine, cp.bytes)
				cp.done = false
				cp.items = nil
			}
			cp.mu.Unlock()
		}
		r.cached = false
		r.cparts = nil
	}
	evictID := r.evictID
	r.evictID = 0
	cleanup := r.cleanup
	r.cleanup = nil
	r.cacheMu.Unlock()
	if evictID != 0 {
		r.c.unregisterEvictor(evictID)
	}
	if cleanup != nil {
		cleanup()
	}
}

// evictMachine drops the cached partitions machine m held; they recompute
// from lineage (onto a surviving machine) on next access.
func (r *RDD[T]) evictMachine(m int) {
	r.cacheMu.Lock()
	cached := r.cached
	cparts := r.cparts
	r.cacheMu.Unlock()
	if !cached {
		return
	}
	n := 0
	for p := range cparts {
		cp := &cparts[p]
		cp.mu.Lock()
		if cp.done && cp.machine == m {
			r.c.release(m, cp.bytes)
			cp.done = false
			cp.items = nil
			n++
		}
		cp.mu.Unlock()
	}
	if n > 0 {
		r.c.recordRecovery(RecoveryEvent{
			Kind:      RecoveryCacheEvict,
			Stage:     r.name,
			Partition: -1,
			Machine:   m,
			Cause:     fmt.Sprintf("%d cached partition(s) lost; recompute from lineage on next access", n),
		})
	}
}

// Materialize computes and caches every partition now (an action). It is how
// iterative algorithms pin their working set, mirroring persist+count.
func (r *RDD[T]) Materialize() error {
	r.Cache()
	if err := r.ensureDeps(); err != nil {
		return err
	}
	return r.c.runStage("materialize:"+r.name, r.parts, func(tc *TaskCtx, p int) error {
		_, err := r.computePartition(tc, p)
		return err
	})
}

// MapPartitions transforms a whole partition at once; f receives the
// partition index, runs inside a task, and may charge transient memory via
// the TaskCtx.
func MapPartitions[T, U any](r *RDD[T], name string, f func(tc *TaskCtx, p int, in []T) ([]U, error)) *RDD[U] {
	return &RDD[U]{
		c:     r.c,
		name:  name,
		parts: r.parts,
		deps:  r.deps,
		compute: func(tc *TaskCtx, p int) ([]U, error) {
			in, err := r.computePartition(tc, p)
			if err != nil {
				return nil, err
			}
			return f(tc, p, in)
		},
	}
}

// Collect computes all partitions and returns the concatenated elements in
// partition order.
func (r *RDD[T]) Collect() ([]T, error) {
	if err := r.ensureDeps(); err != nil {
		return nil, err
	}
	results := make([][]T, r.parts)
	err := r.c.runStage("collect:"+r.name, r.parts, func(tc *TaskCtx, p int) error {
		items, err := r.computePartition(tc, p)
		if err != nil {
			return err
		}
		// Install on commit only: under speculative execution two attempts
		// of the same partition can run concurrently, and only the race
		// winner may publish its result to the driver.
		tc.OnSuccess(func() { results[p] = items })
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []T
	for _, part := range results {
		out = append(out, part...)
	}
	return out, nil
}

// ForeachPartition runs f over every partition inside tasks (an action with
// side effects owned by the caller; f must be safe for concurrent calls on
// distinct partitions — and, with Config.Speculation enabled, for concurrent
// duplicate calls on the SAME partition, since a backup attempt re-runs f
// while the original may still be inside it. Effects that must apply exactly
// once belong in tc.OnSuccess, which fires only for the winning attempt).
func (r *RDD[T]) ForeachPartition(f func(tc *TaskCtx, p int, items []T) error) error {
	if err := r.ensureDeps(); err != nil {
		return err
	}
	return r.c.runStage("foreach:"+r.name, r.parts, func(tc *TaskCtx, p int) error {
		items, err := r.computePartition(tc, p)
		if err != nil {
			return err
		}
		return f(tc, p, items)
	})
}
