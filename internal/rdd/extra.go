package rdd

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
)

// Union concatenates two RDDs of the same element type; the result has the
// partitions of a followed by those of b (no shuffle, like Spark's union).
func Union[T any](a, b *RDD[T], name string) *RDD[T] {
	if a.c != b.c {
		panic("rdd: Union across clusters")
	}
	deps := append(append([]dep(nil), a.deps...), b.deps...)
	return &RDD[T]{
		c:     a.c,
		name:  name,
		parts: a.parts + b.parts,
		deps:  deps,
		compute: func(tc *TaskCtx, p int) ([]T, error) {
			if p < a.parts {
				return a.computePartition(tc, p)
			}
			return b.computePartition(tc, p-a.parts)
		},
	}
}

// Distinct removes duplicate elements (comparable types), shuffling by value
// so each survivor appears exactly once across partitions.
func Distinct[T comparable](r *RDD[T], name string, parts int) *RDD[T] {
	keyed := Map(r, name+":key", func(v T) KV[T, struct{}] { return KV[T, struct{}]{v, struct{}{}} })
	reduced := ReduceByKey(keyed, name, parts, func(a, b struct{}) struct{} { return a })
	return Keys(reduced, name+":values")
}

// Keys projects a pair RDD onto its keys.
func Keys[K comparable, V any](r *RDD[KV[K, V]], name string) *RDD[K] {
	return Map(r, name, func(kv KV[K, V]) K { return kv.K })
}

// Values projects a pair RDD onto its values.
func Values[K comparable, V any](r *RDD[KV[K, V]], name string) *RDD[V] {
	return Map(r, name, func(kv KV[K, V]) V { return kv.V })
}

// CountByKey counts occurrences per key and collects the result on the
// driver.
func CountByKey[K comparable, V any](r *RDD[KV[K, V]], name string) (map[K]int64, error) {
	ones := MapValues(r, name+":ones", func(V) int64 { return 1 })
	counted := ReduceByKey(ones, name, r.parts, func(a, b int64) int64 { return a + b })
	return CollectAsMap(counted)
}

// Sample keeps each element with probability frac, deterministically from
// seed and the partition index (no shuffle).
func Sample[T any](r *RDD[T], name string, frac float64, seed uint64) *RDD[T] {
	return MapPartitions(r, name, func(tc *TaskCtx, p int, in []T) ([]T, error) {
		rng := rand.New(rand.NewPCG(seed, uint64(p)))
		var out []T
		for _, v := range in {
			if rng.Float64() < frac {
				out = append(out, v)
			}
		}
		return out, nil
	})
}

// Checkpoint computes every partition now, persists it through the
// filesystem, and returns an RDD that reads the checkpointed data — cutting
// the lineage, as Spark's checkpointing does for long iterative jobs. The
// checkpoint files model replicated stable storage: they survive KillMachine,
// so lost downstream state recovers by rereading them instead of replaying
// the cut lineage. Written bytes count as disk traffic once; every re-read
// counts as disk-read traffic again. The files are deleted when the returned
// RDD is Unpersisted, and any still alive are deleted by Cluster.Close.
func Checkpoint[T any](r *RDD[T], name string) (*RDD[T], error) {
	if err := r.ensureDeps(); err != nil {
		return nil, err
	}
	if r.c.remote() != nil {
		return checkpointRemote(r, name)
	}
	dir, err := r.c.checkpointDir()
	if err != nil {
		return nil, err
	}
	id := r.c.newID()
	paths := make([]string, r.parts)
	err = r.c.runStage("checkpoint:"+name, r.parts, func(tc *TaskCtx, p int) error {
		items, err := r.computePartition(tc, p)
		if err != nil {
			return err
		}
		data, err := encodeBlock(nil, items)
		if err != nil {
			return fmt.Errorf("rdd: encoding checkpoint: %w", err)
		}
		path := filepath.Join(dir, fmt.Sprintf("ckpt%d-p%d.blk", id, p))
		// Atomic write + commit-time install: speculative duplicate attempts
		// may both write this deterministic path, and only the race winner
		// publishes it to the driver-side paths slice.
		if err := r.c.writeFrameFileAtomic(path, data); err != nil {
			return fmt.Errorf("rdd: writing checkpoint: %w", err)
		}
		tc.countSpillWrite(int64(len(data)))
		r.c.diskDelay(len(data))
		tc.OnSuccess(func() { paths[p] = path })
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.c.trackCheckpoint(id, paths)
	out := &RDD[T]{
		c:     r.c,
		name:  name,
		parts: r.parts,
		compute: func(tc *TaskCtx, p int) ([]T, error) {
			data, err := readFrameFile(paths[p])
			if err != nil {
				return nil, fmt.Errorf("rdd: reading checkpoint: %w", err)
			}
			tc.countSpillRead(int64(len(data)))
			tc.c.diskDelay(len(data))
			return decodeBlock[T](nil, data)
		},
	}
	out.cleanup = func() { r.c.dropCheckpoint(id) }
	return out, nil
}

// checkpointRemote is Checkpoint under a remote Transport: each partition's
// image is replicated to every live worker, which persists it to its local
// data directory — the transport-level model of the replicated stable storage
// the in-process backend models with driver-local files. A worker kill
// destroys at most one replica, so reads fall through to the survivors; disk
// traffic is counted once per partition on write (the replication pipeline is
// a property of the storage system, not per-replica shuffle work) and once
// per re-read, the same accounting as the file-backed path.
func checkpointRemote[T any](r *RDD[T], name string) (*RDD[T], error) {
	c := r.c
	id := c.newID()
	err := c.runStage("checkpoint:"+name, r.parts, func(tc *TaskCtx, p int) error {
		items, err := r.computePartition(tc, p)
		if err != nil {
			return err
		}
		data, err := encodeBlock(nil, items)
		if err != nil {
			return fmt.Errorf("rdd: encoding checkpoint: %w", err)
		}
		if err := c.putCheckpointReplicas(tc, id, p, data); err != nil {
			return err
		}
		tc.countSpillWrite(int64(len(data)))
		c.diskDelay(len(data))
		return nil
	})
	if err != nil {
		return nil, err
	}
	c.trackRemoteCheckpoint(id)
	out := &RDD[T]{
		c:     c,
		name:  name,
		parts: r.parts,
		compute: func(tc *TaskCtx, p int) ([]T, error) {
			data, err := c.fetchCheckpointReplica(id, p)
			if err != nil {
				return nil, err
			}
			tc.countSpillRead(int64(len(data)))
			c.diskDelay(len(data))
			return decodeBlock[T](nil, data)
		},
	}
	out.cleanup = func() { c.dropCheckpoint(id) }
	return out, nil
}

// putCheckpointReplicas stores partition p's checkpoint image on every live
// worker. A worker that dies mid-replication just loses its replica — the
// machine is marked lost and skipped — but at least one replica must land or
// the task fails (retryably if the failures were machine deaths).
func (c *Cluster) putCheckpointReplicas(tc *TaskCtx, id int64, p int, data []byte) error {
	rt := c.remote()
	bid := BlockID{Kind: BlockCheckpoint, Owner: id, Map: int32(p)}
	stored := 0
	for m := 0; m < c.cfg.Machines; m++ {
		if c.machineDead(m) {
			continue
		}
		if err := rt.Put(m, bid, data); err != nil {
			if errors.Is(err, ErrMachineUnreachable) {
				c.machineLost(m, fmt.Sprintf("storing checkpoint replica %d/%d: %v", id, p, err))
				continue
			}
			return fmt.Errorf("rdd: storing checkpoint replica %d/%d on machine %d: %w", id, p, m, err)
		}
		stored++
	}
	if stored == 0 {
		return fmt.Errorf("rdd: no live worker accepted checkpoint %d partition %d: %w", id, p, errRetryable)
	}
	return nil
}

// fetchCheckpointReplica reads partition p's checkpoint image from any worker
// that still holds a replica, starting at the partition's home machine. Dead
// machines are skipped; a worker found unreachable here is marked lost and
// the next replica is tried, so the read only fails once every replica is
// gone.
func (c *Cluster) fetchCheckpointReplica(id int64, p int) ([]byte, error) {
	rt := c.remote()
	bid := BlockID{Kind: BlockCheckpoint, Owner: id, Map: int32(p)}
	mc := c.cfg.Machines
	var lastErr error
	for off := 0; off < mc; off++ {
		m := (p + off) % mc
		if c.machineDead(m) {
			continue
		}
		data, err := rt.Fetch(m, bid)
		if err == nil {
			return data, nil
		}
		lastErr = err
		if errors.Is(err, ErrMachineUnreachable) {
			c.machineLost(m, fmt.Sprintf("fetching checkpoint replica %d/%d: %v", id, p, err))
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("all machines dead")
	}
	return nil, fmt.Errorf("rdd: no replica of checkpoint %d partition %d readable: %v: %w", id, p, lastErr, errRetryable)
}

// trackCheckpoint registers a checkpoint's files for deletion on Unpersist of
// the checkpointed RDD or on Cluster.Close (whichever comes first).
func (c *Cluster) trackCheckpoint(id int64, paths []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ckptFiles == nil {
		c.ckptFiles = map[int64][]string{}
	}
	c.ckptFiles[id] = paths
}

// trackRemoteCheckpoint registers a worker-held checkpoint for best-effort
// Drop on Unpersist or Close.
func (c *Cluster) trackRemoteCheckpoint(id int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ckptRemote == nil {
		c.ckptRemote = map[int64]struct{}{}
	}
	c.ckptRemote[id] = struct{}{}
}

// dropCheckpoint deletes a checkpoint's files (or worker-held replicas) and
// forgets them.
func (c *Cluster) dropCheckpoint(id int64) {
	c.mu.Lock()
	paths := c.ckptFiles[id]
	delete(c.ckptFiles, id)
	_, remote := c.ckptRemote[id]
	delete(c.ckptRemote, id)
	c.mu.Unlock()
	removeFiles(paths)
	if remote {
		c.dropRemoteBlocks(id)
	}
}

// dropRemoteBlocks asks every live worker to forget owner's blocks,
// best-effort.
func (c *Cluster) dropRemoteBlocks(owner int64) {
	rt := c.remote()
	if rt == nil {
		return
	}
	for m := 0; m < c.cfg.Machines; m++ {
		if !c.machineDead(m) {
			rt.Drop(m, owner)
		}
	}
}

// removeFiles best-effort deletes checkpoint and shuffle-spill block files.
func removeFiles(paths []string) {
	for _, p := range paths {
		if p != "" {
			os.Remove(p)
		}
	}
}

// checkpointDir returns (creating lazily) the cluster's on-disk scratch
// space, which exists in ModeMapReduce already and is created on demand for
// in-memory clusters that checkpoint.
func (c *Cluster) checkpointDir() (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.tmpDir != "" {
		return c.tmpDir, nil
	}
	dir, err := os.MkdirTemp("", "distenc-ckpt-")
	if err != nil {
		return "", fmt.Errorf("rdd: creating checkpoint dir: %w", err)
	}
	c.tmpDir = dir
	c.ownsTmp = true
	return dir, nil
}
