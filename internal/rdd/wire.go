package rdd

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"slices"
)

// WireFormat is a shuffle record frame's leading tag byte. There is one
// layout, WireVarint; every encoder writes its tag and every decoder refuses
// any other, so a decoded record re-encodes to identical bytes — the property
// the chaos e2e's bit-equal BytesShuffled assertions and the codec fuzzer rely
// on. Tags 1 (a full-width u32-row layout) and 3 (float32 values) are retired
// rather than reused.
type WireFormat uint8

// WireVarint is the one layout: zigzag-varint delta-coded row indices (sorted
// row runs make the deltas small) and float64 values.
const WireVarint WireFormat = 2

// maxRowDelta bounds a single decoded row delta. Legitimate deltas between
// int32 row indices fit in 33 bits; rejecting anything larger both catches
// corrupt frames early and keeps the running-sum overflow check below inside
// int64 range.
const maxRowDelta = int64(1) << 33

var (
	errRowVarint   = errors.New("rdd: truncated or malformed varint row index")
	errRowOverflow = errors.New("rdd: delta-coded row index overflows int32")
	errValShort    = errors.New("rdd: truncated value payload")
)

// AppendDeltaRows appends rows to buf as zigzag-varint deltas from the
// previous row (first delta is from zero). Sorted slab rows yield mostly
// 1-byte deltas, against 4 bytes for a full-width index.
func AppendDeltaRows(buf []byte, rows []int32) []byte {
	prev := int64(0)
	for _, r := range rows {
		buf = binary.AppendVarint(buf, int64(r)-prev)
		prev = int64(r)
	}
	return buf
}

// DecodeDeltaRows decodes len(dst) delta-coded rows from data into dst and
// returns the remaining bytes. Every intermediate running sum must fit an
// int32; out-of-range chains (the delta-overflow corruption class) are
// rejected rather than silently wrapped.
func DecodeDeltaRows(dst []int32, data []byte) ([]byte, error) {
	prev := int64(0)
	for i := range dst {
		d, used := binary.Varint(data)
		if used <= 0 {
			return nil, errRowVarint
		}
		data = data[used:]
		if d < -maxRowDelta || d > maxRowDelta {
			return nil, errRowOverflow
		}
		prev += d
		if prev < math.MinInt32 || prev > math.MaxInt32 {
			return nil, errRowOverflow
		}
		dst[i] = int32(prev)
	}
	return data, nil
}

// DeltaRowsSize returns the number of bytes AppendDeltaRows writes for rows.
func DeltaRowsSize(rows []int32) int {
	n, prev := 0, int64(0)
	for _, r := range rows {
		d := int64(r) - prev
		n += UvarintLen(uint64(d<<1) ^ uint64(d>>63)) // zigzag, as binary.AppendVarint
		prev = int64(r)
	}
	return n
}

// UvarintLen returns the number of bytes binary.AppendUvarint writes for x.
func UvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// AppendF64Vals appends vals as little-endian float64s — the bulk of every
// shuffle block. buf grows once to its final length and is then
// filled through a sliding window, four values per step, whose loop condition
// carries the length proof: no bounds checks and no per-value append
// bookkeeping (scripts/check_bce.sh keeps it so), same bytes as a per-value
// append.
func AppendF64Vals(buf []byte, vals []float64) []byte {
	le := binary.LittleEndian
	buf = slices.Grow(buf, 8*len(vals))[:len(buf)+8*len(vals)]
	dst := buf[len(buf)-8*len(vals):]
	//bce:begin
	for ; len(vals) >= 4 && len(dst) >= 32; vals, dst = vals[4:], dst[32:] {
		le.PutUint64(dst[0:8], math.Float64bits(vals[0]))
		le.PutUint64(dst[8:16], math.Float64bits(vals[1]))
		le.PutUint64(dst[16:24], math.Float64bits(vals[2]))
		le.PutUint64(dst[24:32], math.Float64bits(vals[3]))
	}
	for ; len(vals) > 0 && len(dst) >= 8; vals, dst = vals[1:], dst[8:] {
		le.PutUint64(dst, math.Float64bits(vals[0]))
	}
	//bce:end
	return buf
}

// DecodeF64Vals decodes len(dst) float64s from data into dst, four per step
// like AppendF64Vals.
func DecodeF64Vals(dst []float64, data []byte) ([]byte, error) {
	if len(data) < 8*len(dst) {
		return nil, errValShort
	}
	le := binary.LittleEndian
	//bce:begin
	for ; len(dst) >= 4 && len(data) >= 32; dst, data = dst[4:], data[32:] {
		dst[0] = math.Float64frombits(le.Uint64(data[0:8]))
		dst[1] = math.Float64frombits(le.Uint64(data[8:16]))
		dst[2] = math.Float64frombits(le.Uint64(data[16:24]))
		dst[3] = math.Float64frombits(le.Uint64(data[24:32]))
	}
	for ; len(dst) > 0 && len(data) >= 8; dst, data = dst[1:], data[8:] {
		dst[0] = math.Float64frombits(le.Uint64(data))
	}
	//bce:end
	return data, nil
}
