package rdd

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"
)

// Broadcast is a read-only value shipped once to every machine, the engine's
// equivalent of Spark broadcast variables. The paper broadcasts the R×R
// Gram matrices and the diagonalized Laplacian spectra this way (§III-B,
// §III-F); the per-machine copy cost is what Lemma 2's O(M·N·R²) term counts.
type Broadcast[T any] struct {
	c       *Cluster
	value   T
	bytes   int64 // size charged per machine
	evictID int64
	owner   int64 // block owner ID under a remote Transport (0: in-process)

	mu      sync.Mutex
	charged []bool // which machines currently hold (and are charged for) a replica
	freed   bool
}

// NewBroadcast registers value on every live machine: its serialized size is
// charged to each machine's memory budget and counted as broadcast traffic.
// Dead machines are skipped; if one is later killed, its replica's charge is
// released (tasks keep reading the driver's copy, as a rebroadcast would
// restore on a real cluster).
func NewBroadcast[T any](c *Cluster, name string, value T) (*Broadcast[T], error) {
	size := EstimateSize(value)
	charged := make([]bool, c.cfg.Machines)
	replicas := 0
	for m := 0; m < c.cfg.Machines; m++ {
		if c.machineDead(m) {
			continue
		}
		if err := c.charge(m, size); err != nil {
			for freed := range charged {
				if charged[freed] {
					c.release(freed, size)
				}
			}
			return nil, fmt.Errorf("rdd: broadcasting %s: %w", name, err)
		}
		charged[m] = true
		replicas++
	}
	b := &Broadcast[T]{c: c, value: value, bytes: size, charged: charged}
	// Under a remote Transport the replica really moves: each live worker
	// receives the serialized value (or, for types gob cannot encode, a
	// size-faithful placeholder — tasks read the driver's copy either way;
	// what the wire must carry honestly is the byte volume Lemma 2 counts).
	// A worker that dies mid-ship loses its replica exactly as if it were
	// killed after receiving it.
	if c.remote() != nil {
		b.owner = c.newID()
		ids := []BlockID{{Kind: BlockBroadcast, Owner: b.owner}}
		images := [][]byte{broadcastImage(value, size)}
		for m := range charged {
			if !charged[m] {
				continue
			}
			if err := c.putBlocks(m, ids, images); err != nil {
				if errors.Is(err, ErrMachineUnreachable) {
					c.machineLost(m, fmt.Sprintf("shipping broadcast %s replica: %v", name, err))
					c.release(m, size)
					charged[m] = false
					replicas--
					continue
				}
				for freed := range charged {
					if charged[freed] {
						c.release(freed, size)
					}
				}
				return nil, fmt.Errorf("rdd: broadcasting %s to machine %d: %w", name, m, err)
			}
		}
	}
	c.metrics.BytesBroadcast.Add(size * int64(replicas))
	b.evictID = c.registerEvictor(b)
	return b, nil
}

// broadcastImage serializes a broadcast value for the wire. Types gob cannot
// encode (unexported fields, functions) ship a zero-filled placeholder of the
// charged size, keeping the transported volume equal to the accounted volume.
func broadcastImage(value any, size int64) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(value); err == nil {
		return buf.Bytes()
	}
	return make([]byte, size)
}

// Value returns the broadcast value (shared, read-only by convention).
func (b *Broadcast[T]) Value() T { return b.value }

// SizeBytes returns the per-machine charged size.
func (b *Broadcast[T]) SizeBytes() int64 { return b.bytes }

// Release frees the per-machine memory charges. Safe to call twice.
func (b *Broadcast[T]) Release() {
	b.mu.Lock()
	if b.freed {
		b.mu.Unlock()
		return
	}
	b.freed = true
	charged := b.charged
	b.charged = nil
	b.mu.Unlock()
	b.c.unregisterEvictor(b.evictID)
	for m, on := range charged {
		if on {
			b.c.release(m, b.bytes)
		}
	}
	if b.owner != 0 {
		b.c.dropRemoteBlocks(b.owner)
	}
}

// evictMachine releases the dead machine's replica charge.
func (b *Broadcast[T]) evictMachine(m int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.freed || !b.charged[m] {
		return
	}
	b.charged[m] = false
	b.c.release(m, b.bytes)
	b.c.recordRecovery(RecoveryEvent{
		Kind:      RecoveryBroadcastEvict,
		Partition: -1,
		Machine:   m,
		Cause:     fmt.Sprintf("broadcast replica (%d bytes) lost with machine", b.bytes),
	})
}
