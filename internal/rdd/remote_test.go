package rdd

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// memTransport is an in-memory Transport: W block stores behind the vectored
// interface, no sockets. It logs every data-plane call, and can be told to
// fail the next FetchBlocks or to have lost a block.
type memTransport struct {
	mu        sync.Mutex
	stores    []map[BlockID][]byte
	puts      []int // len(ids) of every PutBlocks, in order
	fetches   []int // len(ids) of every FetchBlocks
	drops     int
	failFetch error // returned, once, by the next FetchBlocks
}

func newMemTransport(workers int) *memTransport {
	mt := &memTransport{stores: make([]map[BlockID][]byte, workers)}
	for m := range mt.stores {
		mt.stores[m] = map[BlockID][]byte{}
	}
	return mt
}

func (mt *memTransport) Workers() int { return len(mt.stores) }

func (mt *memTransport) PutBlocks(m int, ids []BlockID, images [][]byte) error {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	mt.puts = append(mt.puts, len(ids))
	for i, id := range ids {
		mt.stores[m][id] = append([]byte(nil), images[i]...) // the caller recycles its image
	}
	return nil
}

func (mt *memTransport) FetchBlocks(m int, ids []BlockID, images [][]byte) error {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	mt.fetches = append(mt.fetches, len(ids))
	if err := mt.failFetch; err != nil {
		mt.failFetch = nil
		return err
	}
	var missing []error
	for i, id := range ids {
		data, ok := mt.stores[m][id]
		if !ok {
			images[i] = nil
			missing = append(missing, fmt.Errorf("%w: %v", ErrBlockNotFound, id))
			continue
		}
		images[i] = append(images[i][:0], data...)
	}
	return errors.Join(missing...)
}

func (mt *memTransport) Drop(m int, owner int64) {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	mt.drops++
	for id := range mt.stores[m] {
		if id.Owner == owner {
			delete(mt.stores[m], id)
		}
	}
}

func (mt *memTransport) Kill(m int) error { return nil }
func (mt *memTransport) Close() error     { return nil }

func (mt *memTransport) stored() (n int) {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	for _, s := range mt.stores {
		n += len(s)
	}
	return n
}

// pooled counts the images the block pool holds.
func (c *Cluster) pooled() (n int) {
	c.blockPool.mu.Lock()
	defer c.blockPool.mu.Unlock()
	for _, list := range c.blockPool.free {
		n += len(list)
	}
	return n
}

// TestRemoteShuffleIsVectoredAndRecycles drives the engine's side of the
// Transport seam against an in-memory backend. Per round: one PutBlocks per
// map task carrying all of its buckets, one FetchBlocks per reduce task per
// worker holding any of its blocks, one Drop per worker; the fold is
// bit-identical to the in-process recurrence; and no image is allocated after
// the first round — map images return to the pool once stored, fetch buffers
// when the fold ends (tasks run one at a time, which makes the count exact).
func TestRemoteShuffleIsVectoredAndRecycles(t *testing.T) {
	const parts, workers, rounds = 6, 2, 5
	mt := newMemTransport(workers)
	c := testCluster(t, Config{Machines: workers, SerializeTasks: true, Transport: mt})
	m := c.Metrics()
	var allocated int64
	seen := 0 // data-plane calls the transport received
	for round := 0; round < rounds; round++ {
		mt.puts, mt.fetches, mt.drops = nil, nil, 0
		r := foldRound(c, parts, round)
		got, err := r.Collect()
		if err != nil {
			t.Fatal(err)
		}
		assertBits(t, fmt.Sprintf("round %d", round), got, foldWant(parts, round))
		if n := mt.stored(); n != parts*parts {
			t.Fatalf("round %d: workers hold %d blocks while the exchange lives, want %d", round, n, parts*parts)
		}
		r.Unpersist()
		if len(mt.puts) != parts || len(mt.fetches) > parts*workers || mt.drops != workers {
			t.Fatalf("round %d: %d PutBlocks, %d FetchBlocks, %d Drops; want %d, at most %d, %d",
				round, len(mt.puts), len(mt.fetches), mt.drops, parts, parts*workers, workers)
		}
		seen += len(mt.puts) + len(mt.fetches) + mt.drops
		fetched := 0
		for _, n := range mt.fetches {
			fetched += n
		}
		for _, n := range mt.puts {
			if n != parts {
				t.Fatalf("round %d: a PutBlocks carried %d blocks, want the map task's whole output (%d)", round, n, parts)
			}
		}
		if fetched != parts*parts {
			t.Fatalf("round %d: %d blocks fetched, want each of the %d once", round, fetched, parts*parts)
		}
		if n := mt.stored(); n != 0 {
			t.Fatalf("round %d: %d blocks survive retirement", round, n)
		}
		if round == 0 {
			allocated = m.BlocksAllocated.Load()
		}
	}
	if got := m.BlocksAllocated.Load(); got != allocated || allocated > parts*parts {
		t.Errorf("BlocksAllocated = %d after %d rounds, %d after the first (at most %d): images are not recycled", got, rounds, allocated, parts*parts)
	}
	if calls := m.TransportCalls.Load(); calls != int64(seen) {
		t.Errorf("TransportCalls = %d, the transport saw %d", calls, seen)
	}
	if out, in := m.TransportBytesOut.Load(), m.TransportBytesIn.Load(); out == 0 || out != in {
		t.Errorf("TransportBytesOut = %d, TransportBytesIn = %d; every byte stored was fetched once", out, in)
	}
}

// TestRemoteFetchFailureReturnsBuffers: a reduce task's fetch buffers are pool
// images, and they go back to the pool however its fold ends — a FetchBlocks
// that fails, a block its worker has lost (a hard failure that names the
// block: lineage recovery is for dead machines, not for a live worker that
// forgot), and an exchange retired under the reader. The invariant is a count:
// with no task running, every image ever allocated is in the pool, less the
// one buffer the transport handed back as nil.
func TestRemoteFetchFailureReturnsBuffers(t *testing.T) {
	const parts, workers = 4, 2
	mt := newMemTransport(workers)
	c := testCluster(t, Config{Machines: workers, SerializeTasks: true, MaxTaskRetries: -1, Transport: mt})
	warm := foldRound(c, parts, 0)
	if _, err := warm.Collect(); err != nil {
		t.Fatal(err)
	}
	warm.Unpersist()
	allocated := c.Metrics().BlocksAllocated.Load
	if n := c.pooled(); n == 0 || int64(n) != allocated() {
		t.Fatalf("pool holds %d images after a round, %d were allocated", n, allocated())
	}

	r := foldRound(c, parts, 1)
	if err := r.ensureDeps(); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	mt.failFetch = boom
	if _, err := r.Collect(); !errors.Is(err, boom) {
		t.Fatalf("got %v, want the transport's error", err)
	}
	c.Quiesce()
	if n := c.pooled(); int64(n) != allocated() {
		t.Errorf("pool holds %d images after a failed FetchBlocks, %d were allocated", n, allocated())
	}

	var lost BlockID
	mt.mu.Lock()
	for id := range mt.stores[0] {
		if lost == (BlockID{}) || id.Map < lost.Map || id.Map == lost.Map && id.Reduce < lost.Reduce {
			lost = id
		}
	}
	delete(mt.stores[0], lost)
	mt.mu.Unlock()
	_, err := r.Collect()
	if !errors.Is(err, ErrBlockNotFound) || !strings.Contains(err.Error(), lost.String()) {
		t.Fatalf("got %v, want ErrBlockNotFound naming %v", err, lost)
	}
	c.Quiesce()
	if n := c.pooled(); int64(n) != allocated()-1 {
		// The missing block's buffer came back nil from the transport.
		t.Errorf("pool holds %d images after a fetch with one block missing, want %d", n, allocated()-1)
	}

	r.Unpersist()
	if _, err := r.Collect(); !errors.Is(err, errRetired) {
		t.Fatalf("reading a retired exchange returned %v, want errRetired", err)
	}
	if n := c.pooled(); int64(n) != allocated()-1 {
		t.Errorf("pool holds %d images after reading a retired exchange, want %d", n, allocated()-1)
	}
}
