package rdd

import (
	"errors"
	"fmt"
)

// Transport abstracts where a machine's block images physically live: the
// serialized shuffle buckets a map task produced and the broadcast replicas a
// machine holds. Both are volatile — a worker is an in-memory block store, and
// what dies with it is recomputed from lineage or released. The default
// backend — Config.Transport nil — is the in-process engine itself:
// blocks stay in the driver's memory exactly as before, which keeps CI
// hermetic and the benchmarked hot path untouched. A non-nil Transport (the
// TCP backend in internal/transport) moves every committed block image to a
// real worker process and fetches it back on demand, so machine kills become
// process kills and "unreachable" becomes a real refused connection.
//
// The engine's fault model maps onto the interface through the two sentinel
// errors: ErrMachineUnreachable from Put or Fetch means the worker is gone —
// the engine marks the machine dead (exactly as KillMachine would) and fails
// the observing task with a retryable error, feeding the existing
// retry-budget / lineage-recompute / speculation machinery. Any other error
// is a hard task failure.
//
// Byte accounting is transport-independent by construction: BytesShuffled,
// BytesRecomputed and the disk counters are recorded where blocks are encoded
// (TaskCtx counters at the serialization sites), never where they move, so a
// clean run's Lemma 3 totals are bit-equal across backends.
type Transport interface {
	// Workers reports how many worker machines the transport fronts; it must
	// equal Config.Machines.
	Workers() int
	// Put stores a block image on machine m's worker, overwriting any
	// previous image under the same ID (speculative duplicate attempts write
	// identical bytes).
	Put(m int, id BlockID, data []byte) error
	// Fetch returns the block image stored on machine m's worker.
	// ErrBlockNotFound (wrapped) reports an ID the worker does not hold.
	Fetch(m int, id BlockID) ([]byte, error)
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
	// BlockBroadcast is one machine's replica of a broadcast value.
	// Volatile: a dead machine's replica is simply released.
	BlockBroadcast BlockKind = 2
)

// BlockID names one block in a worker's store: the kind, the owning object's
// cluster-unique ID (exchange or broadcast), and the block coordinates within
// it (map/reduce partition for shuffles, 0/0 for broadcasts).
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

// ErrBlockNotFound is returned (wrapped) by Transport.Fetch for an ID the
// worker does not hold.
var ErrBlockNotFound = errors.New("rdd: block not found on worker")

// remote returns the configured remote Transport, or nil for the built-in
// in-process backend.
func (c *Cluster) remote() Transport { return c.cfg.Transport }

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

// machineLost reacts to a worker found dead by a task's Put or Fetch rather
// than by a driver-side KillMachine call. The dead flag flips synchronously —
// so retried attempts and the scheduler immediately stop using the machine —
// but eviction runs on its own goroutine: the observing task may sit inside a
// cached RDD's compute holding the very partition locks the evictors need,
// and evicting synchronously there would deadlock.
func (c *Cluster) machineLost(m int, cause string) {
	if m < 0 || m >= c.cfg.Machines || c.machines[m].dead.Swap(true) {
		return
	}
	// Eviction joins the attempts group: Quiesce (and therefore Close) must
	// not return while an evictor is still republishing blocks, or shutdown
	// tears the transport out from under the recovery it triggered.
	c.attempts.Add(1)
	go func() {
		defer c.attempts.Done()
		c.evictDeadMachine(m, cause)
	}()
}
