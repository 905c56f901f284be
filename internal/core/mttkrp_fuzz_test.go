package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand/v2"
	"testing"

	"distenc/internal/rdd"
)

// FuzzDecodeRecord hammers the shuffle codec with arbitrary bytes: a decode
// must either error or return a record that re-encodes to the same canonical
// form — and must never panic or allocate from attacker-controlled counts
// (the uint64-wrap bug where nr*4+nv*8 overflowed past the length check).
// The frame's leading tag byte must be rdd.WireVarint: the fuzzer exercises
// delta-varint rows (including truncated varints and delta chains that
// overflow int32) with float64 values, frames tagged 1 and 3 — the retired
// full-width and float32 layouts — which must be refused, and, under tag 2,
// the short value payloads the float32 layout left behind. CI runs this
// target for a 30-second smoke on every push.
func FuzzDecodeRecord(f *testing.F) {
	// addWithRetired seeds rec, rec under the retired raw tag, and rec in the
	// retired float32 shape under tag 2.
	addWithRetired := func(rec PackedRows, cut int) {
		enc := rec.AppendRecord(nil)
		f.Add(enc[:len(enc)-cut])
		enc[0] = retiredRawTag
		f.Add(enc[:len(enc)-cut])
		short := f32Shaped(rec)
		f.Add(short[:len(short)-cut])
	}
	// Well-formed seeds: a typical record, the Mode -1 norm² side-channel,
	// and an empty record.
	addWithRetired(PackedRows{Mode: 2, Rows: []int32{1, 5, 9}, Vals: []float64{1.5, -2, 0, 3.25, 8, 13}}, 0)
	addWithRetired(PackedRows{Mode: -1, Vals: []float64{42}}, 0)
	f.Add((&PackedRows{}).AppendRecord(nil))
	// Float corners in the float32 shape: NaN, infinities, subnormals, and
	// values that round on the f64→f32 narrowing.
	f.Add(f32Shaped(PackedRows{Mode: 1, Rows: []int32{0},
		Vals: []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e-310, math.Pi, -0.0}}))
	// Non-monotone rows: deltas go negative (zigzag path).
	backward := PackedRows{Mode: 0, Rows: []int32{100, 3, 50}, Vals: nil}
	f.Add(backward.AppendRecord(nil))
	// Truncations at every header boundary (tag, mode, counts).
	f.Add([]byte{})
	f.Add([]byte{byte(rdd.WireVarint)})
	f.Add([]byte{byte(rdd.WireVarint), 7})
	f.Add([]byte{byte(rdd.WireVarint), 7, 0})
	f.Add([]byte{byte(rdd.WireVarint), 7, 0, 3})
	// Unknown wire tag.
	f.Add([]byte{0xEE, 7, 0, 0, 0})
	// Crafted wrap: nv = 2^62 makes nv*8 ≡ 0 (mod 2^64), so a naive
	// "len(data) < nr+nv*8" check passes and the alloc of nv values OOMs.
	wrap := []byte{byte(rdd.WireVarint), 3, 0}
	wrap = binary.AppendUvarint(wrap, 0)
	wrap = binary.AppendUvarint(wrap, 1<<62)
	f.Add(wrap)
	wrapPair := []byte{byte(rdd.WireVarint), 3, 0}
	wrapPair = binary.AppendUvarint(wrapPair, 1)     // one row byte survives the naive check
	wrapPair = binary.AppendUvarint(wrapPair, 1<<62) // nv·8 wraps to 0
	wrapPair = append(wrapPair, make([]byte, 8)...)
	f.Add(wrapPair)
	// Varint-specific corruption: a truncated mid-delta varint, and a delta
	// chain whose running sum overflows int32.
	trunc := []byte{byte(rdd.WireVarint), 0, 0}
	trunc = binary.AppendUvarint(trunc, 2)
	trunc = binary.AppendUvarint(trunc, 0)
	trunc = binary.AppendVarint(trunc, 5)
	trunc = append(trunc, 0x80) // continuation byte with no terminator
	f.Add(trunc)
	over := []byte{byte(rdd.WireVarint), 0, 0}
	over = binary.AppendUvarint(over, 2)
	over = binary.AppendUvarint(over, 0)
	over = binary.AppendVarint(over, math.MaxInt32)
	over = binary.AppendVarint(over, 10) // running sum exceeds int32
	f.Add(over)
	// The bulk codecs move four values per step: records whose row and value
	// counts sit on either side of a step (3, 4, 5, 8, 9), in every shape,
	// whole and cut one byte short.
	for _, n := range []int{3, 4, 5, 8, 9} {
		edge := PackedRows{Mode: 1, Rows: make([]int32, n), Vals: make([]float64, n)}
		for i := range edge.Rows {
			edge.Rows[i], edge.Vals[i] = int32(100*i), float64(i)+0.5
		}
		addWithRetired(edge, 0)
		addWithRetired(edge, 1)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var arena rdd.Arena
		var p PackedRows
		rest, err := p.DecodeRecordArena(&arena, data)
		if err != nil {
			return
		}
		used := len(data) - len(rest)
		if used < 3 || used > len(data) {
			t.Fatalf("decode consumed %d of %d bytes", used, len(data))
		}
		// A record the decoder accepted must round-trip through the encoder
		// bit-for-bit (the uvarint input may be non-minimal, so compare two
		// canonical encodings rather than the raw input).
		re := p.AppendRecord(nil)
		var q PackedRows
		rest2, err := q.DecodeRecordArena(&arena, re)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		if len(rest2) != 0 {
			t.Fatalf("canonical encoding left %d trailing bytes", len(rest2))
		}
		if !bytes.Equal(re, q.AppendRecord(nil)) {
			t.Fatalf("round-trip not stable: %+v vs %+v", p, q)
		}
		if q.Mode != p.Mode || len(q.Rows) != len(p.Rows) || len(q.Vals) != len(p.Vals) {
			t.Fatalf("round-trip mismatch: %+v vs %+v", p, q)
		}
	})
}

// retiredRawTag and retiredF32Tag once tagged a full-width u32-row layout and
// a float32-value layout. The values are never reused: a frame carrying
// either is refused as an unknown tag.
const (
	retiredRawTag = 1
	retiredF32Tag = 3
)

// f32Shaped is rec framed as the retired float32 layout framed it — each
// value narrowed to four bytes — but under tag 2, where it is a frame whose
// value payload is half what its count promises.
func f32Shaped(rec PackedRows) []byte {
	enc := rec.AppendRecord(nil)
	enc = enc[:len(enc)-8*len(rec.Vals)]
	for _, v := range rec.Vals {
		enc = binary.LittleEndian.AppendUint32(enc, math.Float32bits(float32(v)))
	}
	return enc
}

// refAppendRecord is the frame written one value at a time — the encoder
// as it was before the bulk codecs. The golden test below holds AppendRecord
// to its bytes.
func refAppendRecord(p *PackedRows) []byte {
	buf := []byte{byte(rdd.WireVarint)}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(p.Mode))
	buf = binary.AppendUvarint(buf, uint64(len(p.Rows)))
	buf = binary.AppendUvarint(buf, uint64(len(p.Vals)))
	prev := int64(0)
	for _, r := range p.Rows {
		buf = binary.AppendVarint(buf, int64(r)-prev)
		prev = int64(r)
	}
	for _, v := range p.Vals {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// TestAppendRecordGoldenBytes pins the wire: for frames of every size around
// the codecs' four-value step, the bulk encoder emits exactly the per-value
// encoder's bytes, RecordSize is their exact count, and encoding into a
// buffer of that capacity never reallocates — which is what lets the engine
// publish each shuffle block as one exact allocation. The inert Wire field
// changes nothing, whatever it holds.
func TestAppendRecordGoldenBytes(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for _, w := range []rdd.WireFormat{0, rdd.WireVarint, retiredF32Tag} {
		for nrows := 0; nrows <= 9; nrows++ {
			for _, rank := range []int{0, 1, 3, 4, 16} {
				p := PackedRows{Mode: int16(nrows - 1), Wire: w, Rows: make([]int32, nrows), Vals: make([]float64, nrows*rank)}
				row := int32(0)
				for i := range p.Rows {
					row += int32(rng.IntN(20000)) - 100 // mostly ascending, sometimes backwards
					p.Rows[i] = row
				}
				for i := range p.Vals {
					p.Vals[i] = rng.NormFloat64()
				}
				want := refAppendRecord(&p)
				if p.RecordSize() != len(want) {
					t.Fatalf("wire=%v rows=%d rank=%d: RecordSize %d, frame is %d bytes", w, nrows, rank, p.RecordSize(), len(want))
				}
				buf := make([]byte, 0, p.RecordSize())
				got := p.AppendRecord(buf)
				if !bytes.Equal(got, want) {
					t.Fatalf("wire=%v rows=%d rank=%d: bulk frame differs from the per-value frame", w, nrows, rank)
				}
				if &got[:1][0] != &buf[:1][0] {
					t.Fatalf("wire=%v rows=%d rank=%d: AppendRecord reallocated an exact-size buffer", w, nrows, rank)
				}
			}
		}
	}
}

// TestCodecRoundTripAllWires pins the lossless round-trip of the one wire
// through the arena-backed decode: every field comes back bit for bit and
// re-encodes to the same frame.
func TestCodecRoundTripAllWires(t *testing.T) {
	recs := []PackedRows{
		{Mode: 0, Rows: []int32{0, 1, 2, 3}, Vals: []float64{1, 2, 3, 4, 5, 6, 7, 8}},
		{Mode: 3, Rows: []int32{7, 7000, 7001, 2_000_000_000}, Vals: []float64{-0.5, 0.25}},
		{Mode: -1, Vals: []float64{42.125}},
		{Mode: 1, Rows: []int32{500, 3, 499}, Vals: nil}, // unsorted: negative deltas
	}
	var arena rdd.Arena
	for _, rec := range recs {
		enc := rec.AppendRecord(nil)
		var got PackedRows
		rest, err := got.DecodeRecordArena(&arena, enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(rest) != 0 {
			t.Fatalf("%d trailing bytes", len(rest))
		}
		if !bytes.Equal(got.AppendRecord(nil), enc) {
			t.Fatalf("decoded record re-encodes differently: %+v vs %+v", got, rec)
		}
		if got.Mode != rec.Mode || len(got.Rows) != len(rec.Rows) || len(got.Vals) != len(rec.Vals) {
			t.Fatalf("decoded %+v, want %+v", got, rec)
		}
		for i, r := range rec.Rows {
			if got.Rows[i] != r {
				t.Fatalf("row %d = %d, want %d", i, got.Rows[i], r)
			}
		}
		for i, v := range rec.Vals {
			if math.Float64bits(got.Vals[i]) != math.Float64bits(v) {
				t.Fatalf("val %d = %v, want %v", i, got.Vals[i], v)
			}
		}
	}
}

// The wrap seeds above must be rejected (not just not-crash): a success would
// mean the decoder believed a multi-exabyte claim from a tiny payload — varint
// rows cost at least 1 byte and values 8, mirroring the original uint64-wrap
// fix.
func TestDecodeRecordRejectsWrappedCounts(t *testing.T) {
	// A tag other than rdd.WireVarint is refused whatever follows it — the
	// retired raw and float32 tags included, on an otherwise well-formed
	// frame.
	for _, tag := range []byte{0, retiredRawTag, retiredF32Tag, retiredF32Tag + 1, 0xEE} {
		frame := (&PackedRows{Mode: 1, Rows: []int32{3}, Vals: []float64{2}}).AppendRecord(nil)
		frame[0] = tag
		var p PackedRows
		if _, err := p.DecodeRecordArena(&rdd.Arena{}, frame); err == nil {
			t.Errorf("tag=%d: decode accepted a frame with an unknown wire tag", tag)
		}
	}
	for _, nr := range []uint64{1 << 62, 1<<64 - 1, 1 << 40} {
		data := []byte{byte(rdd.WireVarint), 0, 0}
		data = binary.AppendUvarint(data, nr)
		data = binary.AppendUvarint(data, 1)
		data = append(data, make([]byte, 8)...)
		var p PackedRows
		if _, err := p.DecodeRecordArena(&rdd.Arena{}, data); err == nil {
			t.Errorf("nr=%d: decode accepted a wrapped row count", nr)
		}
	}
	// Same class of attack through the value count.
	for _, nv := range []uint64{1 << 61, 1<<64 - 1, 1 << 40} {
		data := []byte{byte(rdd.WireVarint), 0, 0}
		data = binary.AppendUvarint(data, 0)
		data = binary.AppendUvarint(data, nv)
		data = append(data, make([]byte, 16)...)
		var p PackedRows
		if _, err := p.DecodeRecordArena(&rdd.Arena{}, data); err == nil {
			t.Errorf("nv=%d: decode accepted a wrapped value count", nv)
		}
	}
}

// TestDecodeRecordRejectsDeltaOverflow pins the delta-chain overflow guard:
// a varint row stream whose running sum leaves int32 range must be rejected,
// not silently wrapped into a bogus row index.
func TestDecodeRecordRejectsDeltaOverflow(t *testing.T) {
	data := []byte{byte(rdd.WireVarint), 0, 0}
	data = binary.AppendUvarint(data, 2)
	data = binary.AppendUvarint(data, 0)
	data = binary.AppendVarint(data, math.MaxInt32)
	data = binary.AppendVarint(data, 1)
	var p PackedRows
	if _, err := p.DecodeRecordArena(&rdd.Arena{}, data); err == nil {
		t.Error("decode accepted a delta chain overflowing int32")
	}
	// A single absurd delta is rejected even before the running sum check.
	data = []byte{byte(rdd.WireVarint), 0, 0}
	data = binary.AppendUvarint(data, 1)
	data = binary.AppendUvarint(data, 0)
	data = binary.AppendVarint(data, math.MaxInt64)
	if _, err := p.DecodeRecordArena(&rdd.Arena{}, data); err == nil {
		t.Error("decode accepted a delta beyond the 33-bit bound")
	}
}
