package rdd

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"reflect"
)

// Sizer lets a type report its in-memory footprint directly, skipping the
// gob-based estimate. Hot types (tensor blocks, factor rows) implement it.
type Sizer interface {
	SizeBytes() int64
}

// EstimateSize returns the approximate serialized size of v in bytes: the
// quantity the engine charges for cached partitions and broadcasts. Values
// implementing Sizer are asked directly; a slice whose elements implement
// Sizer is summed; everything else is gob-encoded once.
func EstimateSize(v any) int64 {
	if s, ok := v.(Sizer); ok {
		return s.SizeBytes()
	}
	if rv := reflect.ValueOf(v); rv.Kind() == reflect.Slice && rv.Len() > 0 {
		if _, ok := rv.Index(0).Interface().(Sizer); ok {
			var total int64
			for i := 0; i < rv.Len(); i++ {
				total += rv.Index(i).Interface().(Sizer).SizeBytes()
			}
			return total
		}
	}
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(v); err != nil {
		// Unencodable values (functions, channels) should never be cached;
		// fall back to a token charge rather than failing the job.
		return 64
	}
	return int64(buf.Len())
}

// BinaryRecord is implemented (on the pointer receiver) by shuffle record
// types that provide their own compact binary framing. Blocks of such records
// skip encoding/gob entirely: encodeBlock writes a record count followed by
// each record's self-delimiting frame, and decodeBlock reverses it. The
// resulting byte counts still flow through the same BytesShuffled /
// DiskBytes accounting, so the engine's Lemma 3 bookkeeping stays honest —
// the packed MTTKRP slab records in internal/core are the motivating user.
type BinaryRecord interface {
	// RecordSize returns the exact length of the frame AppendRecord writes,
	// so a block is allocated once at its final size — the published image
	// carries no doubling slack — and an oversized block is refused before
	// any of it is encoded.
	RecordSize() int
	// AppendRecord appends the record's frame to buf and returns it.
	AppendRecord(buf []byte) []byte
	// DecodeRecord parses one frame from the front of data into the
	// receiver and returns the remaining bytes.
	DecodeRecord(data []byte) (rest []byte, err error)
}

// isBinaryRecord reports whether *R implements BinaryRecord. The choice is a
// property of the type, so the encode and decode sides always agree on the
// wire format without any header byte.
func isBinaryRecord[R any]() bool {
	_, ok := any(new(R)).(BinaryRecord)
	return ok
}

// ArenaBinaryRecord is implemented by BinaryRecord types that can decode
// their variable-length payloads into task-arena slabs instead of fresh heap
// allocations. The shuffle fetch path uses it: fetched records live exactly
// as long as the consuming task attempt, which is the arena lifetime. Paths
// that outlive the attempt (Checkpoint reads, cached partitions) must keep
// using DecodeRecord.
type ArenaBinaryRecord interface {
	BinaryRecord
	// DecodeRecordArena parses one frame like DecodeRecord, drawing the
	// receiver's slices from a.
	DecodeRecordArena(a *Arena, data []byte) (rest []byte, err error)
}

// isArenaBinaryRecord reports whether *R implements ArenaBinaryRecord.
func isArenaBinaryRecord[R any]() bool {
	_, ok := any(new(R)).(ArenaBinaryRecord)
	return ok
}

// maxBlockBytes bounds one encoded shuffle block: the exchange records block
// lengths as int32 (and the frame readers refuse far less), so a larger block
// could only be published with a wrapped length.
const maxBlockBytes = math.MaxInt32

// errBlockTooLarge is wrapped by the shuffle write path with the stage, map
// and reduce partition of the offending block.
var errBlockTooLarge = fmt.Errorf("block exceeds the %d-byte shuffle block limit", maxBlockBytes)

// encodeBlock serializes a shuffle block: the BinaryRecord fast path when the
// record type provides one, encoding/gob otherwise. Binary blocks are sized
// from their records first and written into a single exact allocation.
func encodeBlock[R any](records []R) ([]byte, error) {
	if isBinaryRecord[R]() {
		size := UvarintLen(uint64(len(records)))
		for i := range records {
			size += any(&records[i]).(BinaryRecord).RecordSize()
			if size < 0 || size > maxBlockBytes {
				return nil, errBlockTooLarge
			}
		}
		buf := binary.AppendUvarint(make([]byte, 0, size), uint64(len(records)))
		for i := range records {
			buf = any(&records[i]).(BinaryRecord).AppendRecord(buf)
		}
		return buf, nil
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(records); err != nil {
		return nil, err
	}
	if buf.Len() > maxBlockBytes {
		return nil, errBlockTooLarge
	}
	return buf.Bytes(), nil
}

// decodeBlock reverses encodeBlock.
func decodeBlock[R any](data []byte) ([]R, error) {
	return decodeBlockArena[R](nil, data)
}

// decodeBlockArena reverses encodeBlock, drawing record payload slices from
// the arena when one is provided and the record type supports it (the
// shuffle fetch hot path). With a nil arena it behaves like decodeBlock.
func decodeBlockArena[R any](a *Arena, data []byte) ([]R, error) {
	if isBinaryRecord[R]() {
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
			if a != nil {
				if ar, ok := any(&records[i]).(ArenaBinaryRecord); ok {
					data, err = ar.DecodeRecordArena(a, data)
				} else {
					data, err = any(&records[i]).(BinaryRecord).DecodeRecord(data)
				}
			} else {
				data, err = any(&records[i]).(BinaryRecord).DecodeRecord(data)
			}
			if err != nil {
				return nil, fmt.Errorf("rdd: decoding binary shuffle record %d/%d: %w", i, n, err)
			}
		}
		if len(data) != 0 {
			return nil, fmt.Errorf("rdd: %d trailing bytes after binary shuffle block", len(data))
		}
		return records, nil
	}
	var records []R
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&records); err != nil {
		return nil, err
	}
	return records, nil
}
