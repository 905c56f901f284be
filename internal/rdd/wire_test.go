package rdd

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// The reference encoders are the per-value append loops the bulk codecs
// replaced; the wire bytes must not have moved.
func refF64(buf []byte, vals []float64) []byte {
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

func refF32(buf []byte, vals []float64) []byte {
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(float32(v)))
	}
	return buf
}

// TestBulkCodecsMatchPerValueBytes drives every fixed-width codec across the
// lengths around its four-value step (0…9 values) and across destination
// buffers that are nil, one byte short, exactly large enough, and roomy, and
// requires (a) bytes identical to the per-value reference, (b) no growth
// when the capacity sufficed, (c) a decode that returns the inputs (narrowed
// for f32) and the untouched remainder.
func TestBulkCodecsMatchPerValueBytes(t *testing.T) {
	vals := []float64{1.5, -2, 0, math.Pi, math.Inf(-1), 1e-310, -0.0, 8, 13.25}
	prefix := []byte{0xAA, 0xBB, 0xCC}
	for n := 0; n <= len(vals); n++ {
		type codec struct {
			name        string
			width       int
			enc, ref    func([]byte) []byte
			decodeCheck func(data []byte) ([]byte, bool)
		}
		codecs := []codec{
			{"f64", 8,
				func(b []byte) []byte { return AppendF64Vals(b, vals[:n]) },
				func(b []byte) []byte { return refF64(b, vals[:n]) },
				func(data []byte) ([]byte, bool) {
					got := make([]float64, n)
					rest, err := DecodeF64Vals(got, data)
					ok := err == nil
					for i := range got {
						ok = ok && math.Float64bits(got[i]) == math.Float64bits(vals[i])
					}
					return rest, ok
				}},
			{"f32", 4,
				func(b []byte) []byte { return AppendF32Vals(b, vals[:n]) },
				func(b []byte) []byte { return refF32(b, vals[:n]) },
				func(data []byte) ([]byte, bool) {
					got := make([]float64, n)
					rest, err := DecodeF32Vals(got, data)
					ok := err == nil
					for i := range got {
						ok = ok && math.Float64bits(got[i]) == math.Float64bits(float64(float32(vals[i])))
					}
					return rest, ok
				}},
		}
		for _, c := range codecs {
			if got := c.enc(nil); !bytes.Equal(got, c.ref(nil)) {
				t.Fatalf("%s n=%d into nil: bytes differ from the per-value encoder", c.name, n)
			}
			want := c.ref(append([]byte(nil), prefix...))
			for _, spare := range []int{-1, 0, 5} {
				buf := append(make([]byte, 0, len(want)+spare), prefix...)
				got := c.enc(buf)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s n=%d spare=%d: bytes differ from the per-value encoder", c.name, n, spare)
				}
				if spare >= 0 && cap(got) != cap(buf) {
					t.Fatalf("%s n=%d spare=%d: grew a buffer that was large enough", c.name, n, spare)
				}
			}
			// Decode from a payload followed by trailing bytes: the remainder
			// must be exactly the trailer, and a payload one byte short must
			// be refused.
			payload := c.ref(nil)
			rest, ok := c.decodeCheck(append(append([]byte(nil), payload...), 0xEE, 0xFF))
			if !ok || !bytes.Equal(rest, []byte{0xEE, 0xFF}) {
				t.Fatalf("%s n=%d: decode mismatch (rest=%x)", c.name, n, rest)
			}
			if n > 0 {
				if _, ok := c.decodeCheck(payload[:len(payload)-1]); ok {
					t.Fatalf("%s n=%d: decode accepted a truncated payload", c.name, n)
				}
			}
		}
	}
}

// TestDeltaRowsSizeIsExact pins the size the block pre-sizing relies on.
func TestDeltaRowsSizeIsExact(t *testing.T) {
	cases := [][]int32{
		nil,
		{0},
		{0, 1, 2, 3},
		{63, 64, 127, 128, 8191, 8192}, // varint length boundaries of the zigzag deltas
		{500, 3, 499},                  // negative deltas
		{math.MaxInt32, math.MinInt32, math.MaxInt32, 0},
	}
	for _, rows := range cases {
		if got, want := DeltaRowsSize(rows), len(AppendDeltaRows(nil, rows)); got != want {
			t.Errorf("DeltaRowsSize(%v) = %d, AppendDeltaRows wrote %d", rows, got, want)
		}
	}
}

// BenchmarkF64Codec times the value codec on one reduce-range slab of the
// solve-highdim workload (6250 rows × R=16): encode into a reused buffer,
// decode into a reused slice.
func BenchmarkF64Codec(b *testing.B) {
	vals := make([]float64, 6250*16)
	for i := range vals {
		vals[i] = float64(i) * 0.5
	}
	out := make([]float64, len(vals))
	var buf []byte
	b.Run("append", func(b *testing.B) {
		b.SetBytes(int64(8 * len(vals)))
		for i := 0; i < b.N; i++ {
			buf = AppendF64Vals(buf[:0], vals)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(8 * len(vals)))
		for i := 0; i < b.N; i++ {
			if _, err := DecodeF64Vals(out, buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}
