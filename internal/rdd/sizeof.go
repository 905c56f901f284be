package rdd

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// Sizer is how a cached element declares its in-memory footprint: the bytes
// a cached partition charges to its machine's budget.
type Sizer interface {
	SizeBytes() int64
}

// partitionBytes sums the footprints of a partition's elements. Only Sizers
// can be cached: the engine does not guess what a value weighs.
func partitionBytes[T any](items []T) (int64, error) {
	var total int64
	for i := range items {
		s, ok := any(items[i]).(Sizer)
		if !ok {
			return 0, fmt.Errorf("element type %T does not implement Sizer", items[i])
		}
		total += s.SizeBytes()
	}
	return total, nil
}

// BinaryRecord is implemented (on the pointer receiver) by shuffle record
// types: they provide their own compact binary framing. encodeBlock writes a
// record count followed by each record's self-delimiting frame, and
// decodeBlock reverses it, drawing each record's variable-length payload from
// the consuming attempt's arena: a fetched block's records live until the
// reduce side has folded them (see exchange.records). The resulting byte
// counts flow through the BytesShuffled / DiskBytes accounting, so the
// engine's Lemma 3 bookkeeping stays honest — the packed MTTKRP slab records
// in internal/core are the one production user.
type BinaryRecord interface {
	// RecordSize returns the exact length of the frame AppendRecord writes,
	// so a block is allocated once at its final size — the published image
	// carries no doubling slack — and an oversized block is refused before
	// any of it is encoded.
	RecordSize() int
	// AppendRecord appends the record's frame to buf and returns it.
	AppendRecord(buf []byte) []byte
	// DecodeRecordArena parses one frame from the front of data into the
	// receiver, drawing its slices from a, and returns the remaining bytes.
	DecodeRecordArena(a *Arena, data []byte) (rest []byte, err error)
}

// recordPtr is the constraint ShuffleMap puts on its record type R: *R must
// implement BinaryRecord. The wire format is a property of the type, so the
// encode and decode sides agree on it without any header byte.
type recordPtr[R any] interface {
	*R
	BinaryRecord
}

// maxBlockBytes bounds one encoded shuffle block: the exchange records block
// lengths as int32 (and the frame readers refuse far less), so a larger block
// could only be published with a wrapped length.
const maxBlockBytes = math.MaxInt32

// errBlockTooLarge is wrapped by the shuffle write path with the stage, map
// and reduce partition of the offending block.
var errBlockTooLarge = fmt.Errorf("block exceeds the %d-byte shuffle block limit", maxBlockBytes)

// blockPool is the cluster's free list of shuffle block images, keyed by
// exact size. An iterative job's layout fixes every block's size, so from the
// second iteration on no shuffle bytes are allocated. In-process a retiring
// exchange refills the pool with its images and the next exchange's encodes
// drain it. Under a remote Transport images come back one task at a time —
// a map task's once its PutBlocks has stored them, a reduce task's fetch
// buffers when its fold ends — and the reduce side draws the sizes the map
// side returned, so tasks share images and the pool settles at their peak
// concurrent demand. Either way a retire leaves it holding no more than that
// one exchange's images.
type blockPool struct {
	mu   sync.Mutex
	free map[int][][]byte
}

// refill replaces the pool's contents with blocks, reusing the lists' capacity.
func (bp *blockPool) refill(blocks [][][]byte) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for size, list := range bp.free {
		clear(list)
		bp.free[size] = list[:0]
	}
	for _, bs := range blocks {
		bp.add(bs)
	}
}

// recycle adds images the caller is done with (nil entries skipped).
func (bp *blockPool) recycle(images [][]byte) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.add(images)
}

func (bp *blockPool) add(images [][]byte) {
	for _, b := range images {
		if b != nil {
			bp.free[cap(b)] = append(bp.free[cap(b)], b[:0])
		}
	}
}

// retain trims the pool to what an exchange whose block lengths were lens can
// have recycled into it: per size, as many images as it had blocks of that
// size. Sizes a job no longer produces do not pile up.
func (bp *blockPool) retain(lens [][]int32) {
	had := map[int]int{}
	for _, ls := range lens {
		for _, n := range ls {
			had[int(n)]++
		}
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for size, list := range bp.free {
		if keep := had[size]; len(list) > keep {
			clear(list[keep:])
			bp.free[size] = list[:keep]
		}
	}
}

// blockImage returns an empty image of exactly size bytes for encodeBlock or
// a fetch to fill: one from the block pool when it holds that size, else a
// fresh one.
func (c *Cluster) blockImage(size int) []byte {
	bp := &c.blockPool
	bp.mu.Lock()
	defer bp.mu.Unlock()
	list := bp.free[size]
	if len(list) == 0 {
		c.metrics.BlocksAllocated.Add(1)
		return make([]byte, 0, size)
	}
	c.metrics.BlocksRecycled.Add(1)
	bp.free[size] = list[:len(list)-1]
	return list[len(list)-1]
}

// encodeBlock serializes a shuffle block: it is sized from its records first
// and written into one exact-size c.blockImage.
func encodeBlock[R any, PR recordPtr[R]](c *Cluster, records []R) ([]byte, error) {
	size := UvarintLen(uint64(len(records)))
	for i := range records {
		size += PR(&records[i]).RecordSize()
		if size < 0 || size > maxBlockBytes {
			return nil, errBlockTooLarge
		}
	}
	buf := binary.AppendUvarint(c.blockImage(size), uint64(len(records)))
	for i := range records {
		buf = PR(&records[i]).AppendRecord(buf)
	}
	return buf, nil
}

// decodeBlock reverses encodeBlock, drawing record payload slices from the
// arena.
func decodeBlock[R any, PR recordPtr[R]](a *Arena, data []byte) ([]R, error) {
	n, used := binary.Uvarint(data)
	if used <= 0 {
		return nil, fmt.Errorf("rdd: corrupt binary shuffle block header")
	}
	data = data[used:]
	if n > uint64(len(data)) {
		// Each record frame is at least one byte; a bigger count is a
		// corrupt or hostile header, so reject it before allocating.
		return nil, fmt.Errorf("rdd: binary shuffle block claims %d records in %d bytes", n, len(data))
	}
	records := make([]R, n)
	for i := range records {
		var err error
		if data, err = PR(&records[i]).DecodeRecordArena(a, data); err != nil {
			return nil, fmt.Errorf("rdd: decoding binary shuffle record %d/%d: %w", i, n, err)
		}
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("rdd: %d trailing bytes after binary shuffle block", len(data))
	}
	return records, nil
}
