package rdd

import (
	"errors"
	"fmt"
	"iter"
	"sync"
	"sync/atomic"
	"time"
)

// exchange is one shuffle: the map side buckets and serializes its records by
// target partition; the reduce side fetches and deserializes them. Blocks are
// held in the driver, or on the workers of a remote Transport, with every byte
// counted in the cluster metrics — the quantity Lemma 3 of the paper bounds.
// In ModeMapReduce every block is also counted as a disk write and, per
// fetch, a disk read, with DiskLatencyPerMB of modelled latency each way, and
// stays in the driver: the exchange is durable (replicated HDFS storage).
//
// An exchange lives until retire (Unpersist of the RDD that reads it, or
// Cluster.Close). Until then a machine kill evicts its outputs and the next
// fetch recomputes them from lineage; afterwards there is nothing to evict,
// recompute or fetch, and reading the RDD again fails with errRetired. No
// attempt that touches the exchange outlives its stage, so retire never races
// a reader or a writer.
type exchange[R any, PR recordPtr[R]] struct {
	c           *Cluster
	id          int64
	evictID     int64
	name        string
	mapParts    int
	reduceParts int
	// buckets computes one map task's output: exactly reduceParts slices of
	// records (ShuffleMap's wrapper checks the count).
	buckets func(tc *TaskCtx, mapPart int) ([][]R, error)
	// parentDeps are materialized before the map stage runs.
	parentDeps []dep

	once sync.Once
	err  error

	// mu guards the map-output state below: stage tasks publish into it and
	// KillMachine evicts from it. Lost entries are recomputed OUTSIDE the
	// lock (the recompute can run a whole lineage) with inflight as the
	// per-map-partition single-flight guard: concurrent fetchers of the same
	// lost output wait on its channel instead of convoying on mu or
	// recomputing the partition once per waiter.
	mu       sync.Mutex
	blocks   [][][]byte            // [mapPart][reducePart] (nil rows under a remote Transport)
	lens     [][]int32             // [mapPart][reducePart] block sizes under a remote Transport (0: no block)
	machines []int                 // machine whose memory holds map part p's output (-1: none)
	lost     []bool                // map outputs evicted by a machine kill, pending recompute
	inflight map[int]chan struct{} // map partitions being recomputed right now
	live     int64                 // committed bytes this exchange added to Metrics.ShuffleLiveBytes
	retired  atomic.Bool           // set (under mu) by retire
}

func newExchange[R any, PR recordPtr[R]](c *Cluster, name string, parentDeps []dep, mapParts, reduceParts int,
	buckets func(tc *TaskCtx, mapPart int) ([][]R, error)) *exchange[R, PR] {
	e := &exchange[R, PR]{
		c:           c,
		id:          c.newID(),
		name:        name,
		mapParts:    mapParts,
		reduceParts: reduceParts,
		buckets:     buckets,
		parentDeps:  parentDeps,
	}
	e.evictID = c.registerEvictor(e)
	return e
}

// errRetired fails a read of an RDD whose exchange was retired (Unpersist).
var errRetired = errors.New("rdd: shuffle exchange retired")

// retire ends the exchange's life: it leaves the kill-notification set,
// every live worker drops its blocks, and its in-memory images go to the
// cluster's block pool for the next exchange to encode into.
// Under a remote Transport the driver holds no image of it by now (its tasks
// recycled theirs as they went, see blockPool), so the pool is only trimmed.
func (e *exchange[R, PR]) retire() {
	e.c.unregisterEvictor(e.evictID)
	e.mu.Lock()
	if e.retired.Swap(true) {
		e.mu.Unlock()
		return
	}
	blocks, lens, live := e.blocks, e.lens, e.live
	e.blocks, e.lens = nil, nil
	e.mu.Unlock()
	e.c.metrics.ShuffleLiveBytes.Add(-live)
	if e.remote() {
		e.c.blockPool.retain(lens)
		if blocks != nil {
			e.c.dropRemoteBlocks(e.id)
		}
	} else {
		e.c.blockPool.refill(blocks)
	}
}

// remote reports whether the exchange's blocks live on the workers of a
// remote Transport rather than in the driver (a ModeMapReduce exchange keeps
// them in the driver on either backend).
func (e *exchange[R, PR]) remote() bool {
	return e.c.remote() != nil && e.c.cfg.Mode != ModeMapReduce
}

// evictMachine marks the in-memory map outputs the dead machine held as lost;
// fetch recomputes them from lineage on demand. A ModeMapReduce exchange
// models replicated HDFS storage and survives machine loss.
func (e *exchange[R, PR]) evictMachine(m int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.blocks == nil || e.c.cfg.Mode == ModeMapReduce {
		return
	}
	n := 0
	for p := range e.blocks {
		if e.machines[p] == m {
			e.blocks[p] = nil
			e.machines[p] = -1
			e.lost[p] = true
			n++
		}
	}
	if n > 0 {
		e.c.recordRecovery(RecoveryEvent{
			Kind:      RecoveryShuffleEvict,
			Stage:     e.name,
			Partition: -1,
			Machine:   m,
			Cause:     fmt.Sprintf("%d map output(s) lost; recompute from lineage on next fetch", n),
		})
	}
}

// encodeShuffleBuckets serializes map task mp's buckets into pooled images,
// counting every byte as the producing task's shuffle traffic (and in total).
func (e *exchange[R, PR]) encodeShuffleBuckets(tc *TaskCtx, mp int, bs [][]R) ([][]byte, int64, error) {
	enc := make([][]byte, len(bs))
	var total int64
	for rp, records := range bs {
		if len(records) == 0 {
			continue
		}
		data, err := encodeBlock[R, PR](e.c, records)
		if err != nil {
			return nil, 0, fmt.Errorf("rdd: encoding shuffle %s block %d/%d: %w", e.name, mp, rp, err)
		}
		tc.CountShuffled(int64(len(data)))
		total += int64(len(data))
		enc[rp] = data
	}
	return enc, total, nil
}

// ensure runs the map (shuffle-write) stage exactly once.
func (e *exchange[R, PR]) ensure() error {
	e.once.Do(func() {
		for _, d := range e.parentDeps {
			if e.err = d.ensure(); e.err != nil {
				return
			}
		}
		e.mu.Lock()
		e.blocks = make([][][]byte, e.mapParts)
		e.lens = make([][]int32, e.mapParts)
		e.machines = make([]int, e.mapParts)
		for p := range e.machines {
			e.machines[p] = -1
		}
		e.lost = make([]bool, e.mapParts)
		e.mu.Unlock()
		e.err = e.c.runStage("shuffle-write:"+e.name, e.mapParts, func(tc *TaskCtx, p int) error {
			bs, err := e.buckets(tc, p)
			if err != nil {
				return err
			}
			enc, total, err := e.encodeShuffleBuckets(tc, p, bs)
			if err != nil {
				return err
			}
			if e.c.cfg.Mode == ModeMapReduce {
				for _, data := range enc {
					if data != nil {
						tc.countSpillWrite(int64(len(data)))
						e.c.diskDelay(len(data))
					}
				}
			}
			// Under a remote Transport the bucket bytes move to the producing
			// machine's worker process in one request; the driver keeps only
			// their lengths (presence metadata for the reduce side) and the
			// images go back to the pool. Speculative duplicate attempts store
			// identical bytes under the same IDs on their own machines;
			// machines[p] below decides which copy is ever fetched.
			var lens []int32
			if e.remote() {
				if lens, err = e.putBlocks(tc, p, enc); err != nil {
					return err
				}
				e.c.blockPool.recycle(enc)
				enc = nil
			}
			// Publish on commit only: under speculative execution two
			// attempts of the same map task can finish, and the map-output
			// registry (in particular machines[p], which drives kill-time
			// eviction) must reflect the attempt that won the race.
			tc.OnSuccess(func() {
				e.mu.Lock()
				e.blocks[p] = enc
				e.lens[p] = lens
				e.machines[p] = tc.Machine
				e.lost[p] = false
				e.live += total
				e.mu.Unlock()
				e.c.metrics.ShuffleLiveBytes.Add(total)
			})
			return nil
		})
	})
	return e.err
}

// putBlocks stores one map partition's encoded buckets on the producing
// machine's worker, all in one request, and returns their lengths; once it has
// the worker holds the only copy, exactly as a real executor would, and the
// images are the caller's to recycle. An unreachable worker means the task's
// own machine died under it; the resulting retryable error re-places the task
// elsewhere.
func (e *exchange[R, PR]) putBlocks(tc *TaskCtx, mp int, enc [][]byte) ([]int32, error) {
	lens := make([]int32, e.reduceParts)
	ids := make([]BlockID, 0, len(enc))
	images := make([][]byte, 0, len(enc))
	for rp, data := range enc {
		if data == nil {
			continue
		}
		ids = append(ids, e.blockID(mp, rp))
		images = append(images, data)
		lens[rp] = int32(len(data))
	}
	if len(ids) == 0 {
		return lens, nil
	}
	if err := e.c.putBlocks(tc.Machine, ids, images); err != nil {
		return nil, e.c.transportTaskErr(tc.Machine, fmt.Sprintf("storing shuffle %s map output %d", e.name, mp), err)
	}
	return lens, nil
}

func (e *exchange[R, PR]) blockID(mp, rp int) BlockID {
	return BlockID{Kind: BlockShuffle, Owner: e.id, Map: int32(mp), Reduce: int32(rp)}
}

// blockFor returns map part mp's encoded bucket for reduce partition rp (nil:
// none was sent), held in memory or on a worker, with the whole map partition
// recomputed from lineage first if a machine kill evicted it — Spark's
// FetchFailed → parent-stage re-execution, collapsed into the fetching task
// (which pays and records the recompute). Exactly one fetcher recomputes a
// given lost output; concurrent fetchers wait for it and re-check, and e.mu is
// never held across the recompute or any network read. Under a remote
// Transport this is the path of the blocks fetchPartition could not prefetch —
// a lost output, or one another fetcher recomputed meanwhile, read with a
// one-element FetchBlocks — and the image returned is a pool image the caller
// owns.
func (e *exchange[R, PR]) blockFor(tc *TaskCtx, mp, rp int) ([]byte, error) {
	remote := e.remote()
	for {
		e.mu.Lock()
		if !e.lost[mp] {
			if !remote {
				data := e.blocks[mp][rp]
				e.mu.Unlock()
				return data, nil
			}
			m := e.machines[mp]
			if m < 0 || e.c.machineDead(m) {
				// machineLost runs eviction asynchronously; don't burn a
				// fetch (and a task retry) on a machine already known dead —
				// flag the output lost ourselves and fall through to the
				// recompute path.
				e.blocks[mp] = nil
				e.machines[mp] = -1
				e.lost[mp] = true
				e.mu.Unlock()
				continue
			}
			n := int32(0)
			if e.lens[mp] != nil {
				n = e.lens[mp][rp]
			}
			e.mu.Unlock()
			if n == 0 {
				return nil, nil
			}
			images, err := e.fetchFrom(m, rp, []int{mp}, []int{int(n)})
			if err != nil {
				return nil, err
			}
			return images[0], nil
		}
		if ch, ok := e.inflight[mp]; ok {
			e.mu.Unlock()
			<-ch
			// The recompute finished (or failed, leaving lost[mp] set for
			// the next fetcher to retry); loop to re-read the state.
			continue
		}
		if e.inflight == nil {
			e.inflight = map[int]chan struct{}{}
		}
		ch := make(chan struct{})
		e.inflight[mp] = ch
		e.mu.Unlock()

		enc, err := e.recompute(tc, mp)
		// Under a remote Transport the recomputed buckets move to the
		// recomputing task's worker before publication; the bucket we return
		// below is the in-hand copy, so the common case costs no re-fetch, and
		// the other images go back to the pool as a map task's would.
		var lens []int32
		var out []byte
		if err == nil && remote {
			if lens, err = e.putBlocks(tc, mp, enc); err == nil {
				out, enc[rp] = enc[rp], nil
			}
			e.c.blockPool.recycle(enc)
			enc = nil
		}

		e.mu.Lock()
		delete(e.inflight, mp)
		if err == nil {
			e.blocks[mp] = enc
			e.lens[mp] = lens
			e.machines[mp] = tc.Machine
			e.lost[mp] = false
		}
		e.mu.Unlock()
		close(ch)
		if err != nil {
			return nil, err
		}
		if remote {
			return out, nil
		}
		return enc[rp], nil
	}
}

// recompute re-runs map task mp's lineage to regenerate its serialized
// buckets. The whole window runs with the TaskCtx recompute flag set, so
// every CountShuffled inside it — encodeShuffleBuckets and any traffic the
// lineage's own closures declare — lands in BytesRecomputed rather than
// BytesShuffled: the original bytes were already counted when the first map
// attempt committed, and double-counting them would make a killed run's
// Lemma 3 totals overstate a clean run's.
func (e *exchange[R, PR]) recompute(tc *TaskCtx, mp int) ([][]byte, error) {
	start := time.Now()
	tc.beginRecompute()
	defer tc.endRecompute()
	bs, err := e.buckets(tc, mp)
	if err != nil {
		return nil, fmt.Errorf("rdd: recomputing lost map output %d of shuffle %s: %w", mp, e.name, err)
	}
	enc, _, err := e.encodeShuffleBuckets(tc, mp, bs)
	if err != nil {
		return nil, err
	}
	e.c.recordRecovery(RecoveryEvent{
		Kind:      RecoveryShuffleRecompute,
		Stage:     e.name,
		Partition: mp,
		Machine:   tc.Machine,
		Cause:     "lost map output recomputed from lineage",
		Cost:      time.Since(start),
	})
	return enc, nil
}

// fetchFrom reads from machine m's worker, in one FetchBlocks, the blocks map
// outputs mps sent to reduce partition rp, into pool images of the recorded
// lengths lens — the caller's to recycle. On any failure, a length that
// disagrees included, the images go back to the pool and the error is the
// task's (see transportTaskErr).
func (e *exchange[R, PR]) fetchFrom(m, rp int, mps, lens []int) ([][]byte, error) {
	ids := make([]BlockID, len(mps))
	images := make([][]byte, len(mps))
	for i, mp := range mps {
		ids[i], images[i] = e.blockID(mp, rp), e.c.blockImage(lens[i])
	}
	err := e.c.fetchBlocks(m, ids, images)
	for i, img := range images {
		if err == nil && len(img) != lens[i] {
			err = fmt.Errorf("block %v: fetched %d bytes, want %d", ids[i], len(img), lens[i])
		}
	}
	if err != nil {
		e.c.blockPool.recycle(images)
		return nil, e.c.transportTaskErr(m, fmt.Sprintf("fetching %d block(s) of shuffle %s reduce partition %d", len(ids), e.name, rp), err)
	}
	return images, nil
}

// fetchPartition reads reduce partition rp's encoded blocks from the workers
// that hold them into images[mapPart]: one fetchFrom per worker holding any.
// A map output that is lost, or whose worker is known dead, is left nil for
// blockFor to recompute, as is a bucket nothing was sent in. Images fetched
// before an error stay in images.
func (e *exchange[R, PR]) fetchPartition(rp int, images [][]byte) error {
	src := make([]int, e.mapParts) // worker to read map output mp's block from (-1: none)
	lens := make([]int, e.mapParts)
	e.mu.Lock()
	for mp := range src {
		src[mp] = -1
		if m := e.machines[mp]; m >= 0 && !e.lost[mp] && !e.c.machineDead(m) && e.lens[mp] != nil && e.lens[mp][rp] > 0 {
			src[mp], lens[mp] = m, int(e.lens[mp][rp])
		}
	}
	e.mu.Unlock()
	var mps, ns []int
	for m := 0; m < e.c.cfg.Machines; m++ {
		mps, ns = mps[:0], ns[:0]
		for mp, from := range src {
			if from == m {
				mps, ns = append(mps, mp), append(ns, lens[mp])
			}
		}
		if len(mps) == 0 {
			continue
		}
		got, err := e.fetchFrom(m, rp, mps, ns)
		if err != nil {
			return err
		}
		for i, mp := range mps {
			images[mp] = got[i]
		}
	}
	return nil
}

// records hands the loop body the blocks destined for reduce partition rp,
// one decoded block at a time in map-partition order, attributing any
// modelled disk reads (and lost-block recomputes) to the fetching task. Each
// block is decoded into an arena region that is rewound for the next (see
// ShuffleMap). Reading a retired exchange fails with errRetired.
// Under a remote Transport the partition's encoded input is fetched up front
// (fetchPartition) into pool images that go back to the pool when the loop
// ends, however it ends; the fold order does not depend on which worker
// answered first.
func (e *exchange[R, PR]) records(tc *TaskCtx, rp int) iter.Seq2[[]R, error] {
	return func(yield func([]R, error) bool) {
		if e.retired.Load() {
			yield(nil, errRetired)
			return
		}
		arena := tc.Arena()
		mark := arena.Mark()
		var fetched [][]byte
		if e.remote() {
			fetched = make([][]byte, e.mapParts)
			defer e.c.blockPool.recycle(fetched)
			if err := e.fetchPartition(rp, fetched); err != nil {
				yield(nil, err)
				return
			}
		}
		for mp := 0; mp < e.mapParts; mp++ {
			var data []byte
			var err error
			if fetched != nil {
				data = fetched[mp]
			}
			if data == nil {
				data, err = e.blockFor(tc, mp, rp)
				if fetched != nil {
					fetched[mp] = data // a pool image too: recycled with the rest
				}
			}
			if err == nil && data == nil {
				continue
			}
			var block []R
			if err == nil {
				if e.c.cfg.Mode == ModeMapReduce {
					tc.countSpillRead(int64(len(data)))
					e.c.diskDelay(len(data))
				}
				if block, err = decodeBlock[R, PR](arena, data); err != nil {
					err = fmt.Errorf("rdd: decoding shuffle block: %w", err)
				}
			}
			if !yield(block, err) || err != nil {
				return
			}
			arena.Rewind(mark)
		}
	}
}

// ShuffleMap is the engine's one wide transformation: bucket runs once per map
// partition (stage "shuffle-write:"+name) and returns the records destined
// for each of the reduceParts reduce partitions; reduce computes partition p
// of the result RDD, named reduceName, by ranging over blocks — every map
// task's bucket p, one decoded block at a time in map-partition order, so the
// fold is deterministic and a reducer holds its own state plus one decoded
// block, not all of them (and, under a remote Transport, its partition's
// encoded input in pool images until the fold ends). A block is valid until
// the next loop iteration only, and arena memory reduce draws while it holds
// one is freed with it (see Arena.Rewind).
// Records are grouped by destination by the caller and frame themselves (R is
// a BinaryRecord): the packed MTTKRP slab records, whose sorted row ranges map
// to contiguous reduce partitions, shuffle O(parts) records instead of
// O(keys). Unpersist of the result retires the exchange: block images and
// worker-held blocks are freed, and lineage recovery for it ends.
func ShuffleMap[T, R, U any, PR recordPtr[R]](r *RDD[T], name, reduceName string, reduceParts int,
	bucket func(tc *TaskCtx, mapPart int, in []T) ([][]R, error),
	reduce func(tc *TaskCtx, p int, blocks iter.Seq2[[]R, error]) ([]U, error)) *RDD[U] {
	if reduceParts <= 0 {
		reduceParts = r.parts
	}
	ex := newExchange[R, PR](r.c, name, r.deps, r.parts, reduceParts, func(tc *TaskCtx, mapPart int) ([][]R, error) {
		in, err := r.computePartition(tc, mapPart)
		if err != nil {
			return nil, err
		}
		out, err := bucket(tc, mapPart, in)
		if err != nil {
			return nil, err
		}
		if len(out) != reduceParts {
			return nil, fmt.Errorf("rdd: ShuffleMap %s map task %d produced %d buckets, want %d", name, mapPart, len(out), reduceParts)
		}
		return out, nil
	})
	return &RDD[U]{
		c:       r.c,
		name:    reduceName,
		parts:   reduceParts,
		deps:    []dep{ex},
		cleanup: ex.retire,
		compute: func(tc *TaskCtx, p int) ([]U, error) {
			return reduce(tc, p, ex.records(tc, p))
		},
	}
}

// diskDelay models HDFS/disk latency proportional to the spilled bytes.
func (c *Cluster) diskDelay(n int) {
	if c.cfg.DiskLatencyPerMB <= 0 {
		return
	}
	d := time.Duration(float64(c.cfg.DiskLatencyPerMB) * float64(n) / (1 << 20))
	if d > 0 {
		time.Sleep(d)
	}
}
