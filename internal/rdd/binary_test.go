package rdd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"iter"
	"math"
	"math/rand/v2"
	"strings"
	"testing"
)

// slabRec is the tests' BinaryRecord: a tag plus
// a variable-length payload, framed like the packed MTTKRP records in
// internal/core.
type slabRec struct {
	Tag  int32
	Vals []float64
}

func (s *slabRec) RecordSize() int {
	return 4 + UvarintLen(uint64(len(s.Vals))) + 8*len(s.Vals)
}

func (s *slabRec) AppendRecord(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.Tag))
	buf = binary.AppendUvarint(buf, uint64(len(s.Vals)))
	for _, v := range s.Vals {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(v*1e6)))
	}
	return buf
}

func (s *slabRec) DecodeRecord(data []byte) ([]byte, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("short record")
	}
	s.Tag = int32(binary.LittleEndian.Uint32(data))
	data = data[4:]
	n, used := binary.Uvarint(data)
	if used <= 0 {
		return nil, fmt.Errorf("bad length")
	}
	data = data[used:]
	if uint64(len(data)) < n*8 {
		return nil, fmt.Errorf("short payload")
	}
	s.Vals = make([]float64, n)
	for i := range s.Vals {
		s.Vals[i] = float64(int64(binary.LittleEndian.Uint64(data[i*8:]))) / 1e6
	}
	return data[n*8:], nil
}

func TestBinaryRecordBlockRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	recs := make([]slabRec, 13)
	for i := range recs {
		recs[i].Tag = int32(rng.IntN(1000) - 500)
		recs[i].Vals = make([]float64, rng.IntN(9))
		for j := range recs[i].Vals {
			recs[i].Vals[j] = float64(rng.IntN(2_000_000)-1_000_000) / 1e6
		}
	}
	data, err := encodeBlock(testCluster(t, Config{}), recs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeBlock[slabRec](nil, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].Tag != recs[i].Tag {
			t.Fatalf("record %d tag %d, want %d", i, got[i].Tag, recs[i].Tag)
		}
		if len(got[i].Vals) != len(recs[i].Vals) {
			t.Fatalf("record %d has %d vals, want %d", i, len(got[i].Vals), len(recs[i].Vals))
		}
		for j := range recs[i].Vals {
			// The codec is lossless; compare bit patterns rather than values.
			if math.Float64bits(got[i].Vals[j]) != math.Float64bits(recs[i].Vals[j]) {
				t.Fatalf("record %d val %d = %v, want %v", i, j, got[i].Vals[j], recs[i].Vals[j])
			}
		}
	}
}

func TestBinaryRecordEmptyBlock(t *testing.T) {
	data, err := encodeBlock(testCluster(t, Config{}), []slabRec(nil))
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeBlock[slabRec](nil, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("decoded %d records from empty block", len(got))
	}
}

func TestBinaryRecordCorruptBlock(t *testing.T) {
	recs := []slabRec{{Tag: 7, Vals: []float64{1, 2, 3}}}
	data, err := encodeBlock(testCluster(t, Config{}), recs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeBlock[slabRec](nil, data[:len(data)-3]); err == nil {
		t.Fatal("truncated block decoded without error")
	}
	if _, err := decodeBlock[slabRec](nil, append(data, 0xFF)); err == nil {
		t.Fatal("trailing garbage decoded without error")
	}
}

// ShuffleMap must deliver each map task's bucket p to reduce partition p, in
// map-partition order.
func TestShuffleMapRoutesBuckets(t *testing.T) {
	c := MustNewCluster(Config{Machines: 3})
	src := Parallelize(c, "ints", []int{1, 2, 3, 4, 5, 6, 7, 8}, 4)
	const parts = 3
	out := ShuffleMap(src, "route", "routed", parts, func(tc *TaskCtx, mp int, in []int) ([][]slabRec, error) {
		buckets := make([][]slabRec, parts)
		for _, v := range in {
			rp := v % parts
			buckets[rp] = append(buckets[rp], slabRec{Tag: int32(v), Vals: []float64{float64(mp)}})
		}
		return buckets, nil
	}, gather[slabRec])
	for rp := 0; rp < parts; rp++ {
		recs, err := collectPartition(out, rp)
		if err != nil {
			t.Fatal(err)
		}
		lastMap := int32(-1)
		for _, r := range recs {
			if int(r.Tag)%parts != rp {
				t.Fatalf("partition %d received tag %d", rp, r.Tag)
			}
			if mp := int32(r.Vals[0]); mp < lastMap {
				t.Fatalf("partition %d records out of map order: %d after %d", rp, mp, lastMap)
			} else {
				lastMap = mp
			}
		}
	}
	if c.Metrics().BytesShuffled.Load() == 0 {
		t.Fatal("ShuffleMap moved no bytes")
	}
}

func TestShuffleMapBucketCountMismatch(t *testing.T) {
	c := MustNewCluster(Config{Machines: 2})
	src := Parallelize(c, "ints", []int{1, 2}, 2)
	out := ShuffleMap(src, "bad", "bad-reduce", 3, func(tc *TaskCtx, mp int, in []int) ([][]slabRec, error) {
		return make([][]slabRec, 2), nil // wrong bucket count
	}, gather[slabRec])
	if _, err := out.Collect(); err == nil {
		t.Fatal("mismatched bucket count did not error")
	}
}

// gather is the reduce side of the ShuffleMap tests that only route: it keeps
// every record it is handed. The test record types decode onto the heap, so
// their payloads outlive the block that carried them.
func gather[R any](_ *TaskCtx, _ int, blocks iter.Seq2[[]R, error]) ([]R, error) {
	var out []R
	for block, err := range blocks {
		if err != nil {
			return nil, err
		}
		out = append(out, block...)
	}
	return out, nil
}

// collectPartition materializes a single partition of r.
func collectPartition[T any](r *RDD[T], p int) ([]T, error) {
	if err := r.ensureDeps(); err != nil {
		return nil, err
	}
	var out []T
	err := r.c.runStage(fmt.Sprintf("collect-part:%s:%d", r.name, p), 1, func(tc *TaskCtx, _ int) error {
		items, err := r.computePartition(tc, p)
		out = items
		return err
	})
	return out, err
}

// A binary block is sized from its records and written into one allocation
// with no slack: the published image carries no doubling garbage.
func TestEncodeBlockIsOneExactAllocation(t *testing.T) {
	recs := make([]slabRec, 5)
	for i := range recs {
		recs[i] = slabRec{Tag: int32(i), Vals: make([]float64, 100*(i+1))}
	}
	fresh := testCluster(t, Config{Machines: 1}) // its pool stays empty: every image is allocated
	data, err := encodeBlock(fresh, recs)
	if err != nil {
		t.Fatal(err)
	}
	if cap(data) != len(data) {
		t.Fatalf("block has len %d, cap %d: want an exact-size allocation", len(data), cap(data))
	}
	if allocs := testing.AllocsPerRun(20, func() { data, _ = encodeBlock(fresh, recs) }); allocs != 1 {
		t.Fatalf("encodeBlock allocates %.0f objects, want 1", allocs)
	}

	// A second exchange of the same shape encodes into the images the first
	// one retired: no allocation at all, byte-identical blocks. The retired
	// images are scribbled over first, so stale bytes cannot pass for fresh.
	const runs = 20
	retired := make([][]byte, runs+2) // AllocsPerRun warms up with one extra call
	for i := range retired {
		retired[i] = bytes.Repeat([]byte{0xEE}, len(data))
	}
	c := MustNewCluster(Config{Machines: 1})
	defer c.Close()
	c.blockPool.refill([][][]byte{retired})
	var again []byte
	if allocs := testing.AllocsPerRun(runs, func() { again, _ = encodeBlock(c, recs) }); allocs != 0 {
		t.Fatalf("encodeBlock into a pooled image allocates %.0f objects, want 0", allocs)
	}
	if !bytes.Equal(again, data) || cap(again) != len(again) {
		t.Fatal("block encoded into a recycled image differs from the freshly allocated one")
	}
	if m := c.Metrics(); m.BlocksRecycled.Load() != runs+1 || m.BlocksAllocated.Load() != 0 {
		t.Fatalf("recycled %d, allocated %d; want %d and 0", m.BlocksRecycled.Load(), m.BlocksAllocated.Load(), runs+1)
	}
	// An image of another size is never handed out for this block.
	c.blockPool.refill([][][]byte{{make([]byte, len(data)+1)}})
	if _, err := encodeBlock(c, recs); err != nil || c.Metrics().BlocksAllocated.Load() != 1 {
		t.Fatalf("a pooled image of the wrong size was used (err %v)", err)
	}
}

// hugeRec claims a frame too large for a shuffle block. Its size is checked
// before anything is encoded, so AppendRecord must never run (and no 2 GiB
// buffer is ever allocated).
type hugeRec struct{ size int }

func (h *hugeRec) RecordSize() int { return h.size }
func (h *hugeRec) AppendRecord(buf []byte) []byte {
	panic("oversized block was encoded")
}
func (h *hugeRec) DecodeRecord(data []byte) ([]byte, error) { return data, nil }

// A block of 2 GiB or more used to have its length stored as a wrapped int32;
// it is now refused with an error naming the stage, map and reduce partition.
func TestShuffleBlockTooLargeIsRejected(t *testing.T) {
	for _, sizes := range [][]int{{math.MaxInt32}, {1 << 30, 1 << 30}, {math.MaxInt, math.MaxInt}} {
		c := MustNewCluster(Config{Machines: 2, MaxTaskRetries: -1})
		src := Parallelize(c, "ints", []int{1, 2}, 2)
		out := ShuffleMap(src, "huge", "huge-reduce", 3, func(tc *TaskCtx, mp int, in []int) ([][]hugeRec, error) {
			buckets := make([][]hugeRec, 3)
			if mp == 1 {
				for _, s := range sizes {
					buckets[2] = append(buckets[2], hugeRec{size: s})
				}
			}
			return buckets, nil
		}, gather[hugeRec])
		_, err := out.Collect()
		if err == nil {
			t.Fatalf("sizes %v: oversized shuffle block was accepted", sizes)
		}
		if !errors.Is(err, errBlockTooLarge) || !strings.Contains(err.Error(), "shuffle huge block 1/2") {
			t.Fatalf("sizes %v: error %q does not name stage, map and reduce partition", sizes, err)
		}
		c.Close()
	}
}
