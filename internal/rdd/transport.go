package rdd

import (
	"errors"
	"fmt"
)

// Transport abstracts where a machine's block images physically live: the
// serialized shuffle buckets a map task produced. They are volatile — a worker
// is an in-memory block store, and what dies with it is recomputed from
// lineage. The default backend — Config.Transport nil — is the in-process
// engine itself: blocks stay in the driver's memory, which keeps CI hermetic
// and the benchmarked hot path untouched. A non-nil Transport (the
// TCP backend in internal/transport) moves every committed block image to a
// real worker process and fetches it back on demand, so machine kills become
// process kills and "unreachable" becomes a real refused connection. Tasks
// still execute on the driver: a remote Transport is a data plane and a
// fault-realism fixture, not yet a scale-out.
//
// The data plane is vectored, one request per task per worker: a map task
// stores all of its buckets with one PutBlocks, and a reduce task reads all of
// its partition's blocks that one worker holds with one FetchBlocks, so an
// iteration over P partitions and W workers costs at most P + P·W + W round
// trips (the W are the Drops that retire it), not one per block.
//
// The engine's fault model maps onto the interface through the two sentinel
// errors: ErrMachineUnreachable from PutBlocks or FetchBlocks means the worker
// is gone — the engine marks the machine dead (exactly as KillMachine would)
// and fails the observing task with a retryable error, feeding the existing
// retry-budget / lineage-recompute / speculation machinery. Any other error
// is a hard task failure.
//
// Byte accounting is transport-independent by construction: BytesShuffled,
// BytesRecomputed and the disk counters are recorded where blocks are encoded
// (TaskCtx counters at the serialization sites), never where they move, so a
// clean run's Lemma 3 totals are bit-equal across backends. What the network
// itself cost is counted apart, at this seam: Metrics.TransportCalls,
// TransportBytesOut and TransportBytesIn.
type Transport interface {
	// Workers reports how many worker machines the transport fronts; it must
	// equal Config.Machines.
	Workers() int
	// PutBlocks stores images[i] under ids[i] on machine m's worker, all in
	// one request, overwriting any previous image under the same ID
	// (speculative duplicate attempts write identical bytes). The images are
	// the caller's again when it returns: the engine recycles them.
	PutBlocks(m int, ids []BlockID, images [][]byte) error
	// FetchBlocks reads the images stored under ids on machine m's worker,
	// all in one request, into images (one slot per ID). A slot's capacity is
	// used when the image fits — the engine passes pool buffers of the
	// recorded block length, so a fetched byte is not copied again — and
	// replaced by a fresh slice otherwise. An ID the worker does not hold
	// leaves its slot nil and is reported in the returned error, which wraps
	// ErrBlockNotFound and names every such block; the other slots are still
	// filled. Nothing writes to images after FetchBlocks returns.
	FetchBlocks(m int, ids []BlockID, images [][]byte) error
	// Drop forgets every block of the given owner on machine m's worker,
	// best-effort: unreachable workers are ignored (their blocks died with
	// them).
	Drop(m int, owner int64)
	// Kill terminates machine m's worker process — the transport-level
	// realization of KillMachine. Killing is idempotent and best-effort.
	Kill(m int) error
	// Close drains and shuts down the transport: graceful stop for workers
	// the transport spawned, connection teardown for external ones.
	Close() error
}

// BlockKind classifies transported block images.
type BlockKind uint8

const (
	// BlockShuffle is a map task's serialized bucket for one reduce
	// partition. Volatile: lost with the worker, recomputed from lineage.
	BlockShuffle BlockKind = 1
)

// BlockID names one block in a worker's store: the kind, the owning
// exchange's cluster-unique ID, and the block's map and reduce partition
// within it.
type BlockID struct {
	Kind   BlockKind
	Owner  int64
	Map    int32
	Reduce int32
}

func (id BlockID) String() string {
	return fmt.Sprintf("k%d-o%d-m%d-r%d", id.Kind, id.Owner, id.Map, id.Reduce)
}

// ErrMachineUnreachable is returned (wrapped) by Transport implementations
// when a worker cannot be reached: connection refused, reset, or timed out.
// The engine treats it as the machine having died.
var ErrMachineUnreachable = errors.New("rdd: worker machine unreachable")

// ErrBlockNotFound is returned (wrapped) by Transport.FetchBlocks for an ID
// the worker does not hold.
var ErrBlockNotFound = errors.New("rdd: block not found on worker")

// remote returns the configured remote Transport, or nil for the built-in
// in-process backend.
func (c *Cluster) remote() Transport { return c.cfg.Transport }

// putBlocks, fetchBlocks and dropBlocks are the engine's only calls into a
// remote Transport's data plane, and where the network gets its price tag:
// one call each, plus the image bytes handed over or handed back. Counting
// here rather than in a backend prices every backend alike.
func (c *Cluster) putBlocks(m int, ids []BlockID, images [][]byte) error {
	c.metrics.TransportCalls.Add(1)
	c.metrics.TransportBytesOut.Add(imageBytes(images))
	return c.remote().PutBlocks(m, ids, images)
}

func (c *Cluster) fetchBlocks(m int, ids []BlockID, images [][]byte) error {
	c.metrics.TransportCalls.Add(1)
	err := c.remote().FetchBlocks(m, ids, images)
	c.metrics.TransportBytesIn.Add(imageBytes(images))
	return err
}

func (c *Cluster) dropBlocks(m int, owner int64) {
	c.metrics.TransportCalls.Add(1)
	c.remote().Drop(m, owner)
}

func imageBytes(images [][]byte) (n int64) {
	for _, img := range images {
		n += int64(len(img))
	}
	return n
}

// dropRemoteBlocks asks every live worker to forget owner's blocks,
// best-effort.
func (c *Cluster) dropRemoteBlocks(owner int64) {
	if c.remote() == nil {
		return
	}
	for m := 0; m < c.cfg.Machines; m++ {
		if !c.machineDead(m) {
			c.dropBlocks(m, owner)
		}
	}
}

// transportTaskErr classifies a transport failure observed by a running task.
// An unreachable worker means machine m is gone: it is marked dead (the
// detection-side twin of KillMachine) and the task fails with a retryable
// error so the scheduler re-places it and lineage recomputes whatever died
// with the machine. Any other transport error fails the task for good.
func (c *Cluster) transportTaskErr(m int, op string, err error) error {
	if errors.Is(err, ErrMachineUnreachable) {
		c.machineLost(m, fmt.Sprintf("%s: %v", op, err))
		return fmt.Errorf("rdd: %s on machine %d: %v: %w", op, m, err, errRetryable)
	}
	return fmt.Errorf("rdd: %s on machine %d: %w", op, m, err)
}

// machineLost reacts to a worker found dead by a task's put or fetch rather
// than by a driver-side KillMachine call. The dead flag flips synchronously —
// so retried attempts and the scheduler immediately stop using the machine —
// but eviction runs on its own goroutine: the observing task may sit inside a
// cached RDD's compute holding the very partition locks the evictors need,
// and evicting synchronously there would deadlock.
func (c *Cluster) machineLost(m int, cause string) {
	if m < 0 || m >= c.cfg.Machines || c.machines[m].dead.Swap(true) {
		return
	}
	// Quiesce (and therefore Close) must not return while an evictor is
	// still republishing blocks, or shutdown tears the transport out from
	// under the recovery it triggered.
	c.evictions.Add(1)
	go func() {
		defer c.evictions.Done()
		c.evictDeadMachine(m, cause)
	}()
}
