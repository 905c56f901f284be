package distenc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"distenc/internal/rdd"
)

// Binary tensor format ("DTZ1"): a compact fixed-layout encoding for large
// tensors where the COO text format is too slow to parse.
//
//	magic   [4]byte  "DTZ1"
//	order   uint32
//	dims    order × uint64
//	nnz     uint64
//	indices nnz × order × int32 (little endian)
//	values  nnz × float64 (IEEE 754 bits, little endian)

var dtzMagic = [4]byte{'D', 'T', 'Z', '1'}

// WriteBinary writes t in the DTZ1 binary format.
func WriteBinary(w io.Writer, t *Tensor) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(dtzMagic[:]); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(t.Order())); err != nil {
		return err
	}
	for _, d := range t.Dims {
		if err := binary.Write(bw, binary.LittleEndian, uint64(d)); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(t.NNZ())); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, t.Idx); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, t.Val); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadBinary parses the DTZ1 binary format and validates the result: every
// index in range for its mode and every value finite, as Tensor.Validate
// requires.
//
// The payload is decoded in place — straight from one 64 KB buffer into
// t.Idx and t.Val — and checked as it is decoded, so there is neither a
// full-size temporary nor a validation pass over the tensor afterwards. The
// storage is sized for min(nnz, 1<<20) entries up front and grows as payload
// arrives: a header that promises more entries than the input holds fails at
// end of input instead of allocating what it promises.
func ReadBinary(r io.Reader) (*Tensor, error) {
	buf := make([]byte, 64<<10)
	head := buf[:8]
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("distenc: reading header: %w", err)
	}
	if [4]byte(head) != dtzMagic {
		return nil, fmt.Errorf("distenc: bad magic %q, want %q", head[:4], dtzMagic)
	}
	order := int(binary.LittleEndian.Uint32(head[4:]))
	if order == 0 || order > 16 {
		return nil, fmt.Errorf("distenc: implausible tensor order %d", order)
	}
	head = buf[:8*order+8]
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("distenc: reading header: %w", err)
	}
	dims := make([]int, order)
	for i := range dims {
		d := binary.LittleEndian.Uint64(head[8*i:])
		if d == 0 || d > math.MaxInt32 {
			return nil, fmt.Errorf("distenc: implausible dimension %d", d)
		}
		dims[i] = int(d)
	}
	nnz := binary.LittleEndian.Uint64(head[8*order:])
	const maxNNZ = 1 << 33
	if nnz > maxNNZ {
		return nil, fmt.Errorf("distenc: implausible nnz %d", nnz)
	}
	t := NewTensor(dims...)
	first := min(int(nnz), 1<<20)
	t.Idx = make([]int32, 0, first*order)
	t.Val = make([]float64, 0, first)

	// Indices, a buffer of whole cells at a time, each checked against its
	// mode with one unsigned compare (a negative index is a huge unsigned one).
	perBuf := len(buf) / (4 * order) * order
	for left := int(nnz) * order; left > 0; {
		k := min(perBuf, left)
		src := buf[:4*k]
		if _, err := io.ReadFull(r, src); err != nil {
			return nil, fmt.Errorf("distenc: reading indices: %w", err)
		}
		base := len(t.Idx)
		t.Idx = slices.Grow(t.Idx, k)[:base+k]
		dst := t.Idx[base:]
		//bce:begin
		for d, s := dst, src; len(d) > 0 && len(s) >= 4; d, s = d[1:], s[4:] {
			d[0] = int32(binary.LittleEndian.Uint32(s))
		}
		//bce:end
		m := 0
		for i, v := range dst {
			if uint(v) >= uint(dims[m]) {
				return nil, fmt.Errorf("distenc: binary tensor invalid: entry %d mode %d index %d out of range [0,%d)", (base+i)/order, m, v, dims[m])
			}
			if m++; m == order {
				m = 0
			}
		}
		left -= k
	}
	for left := int(nnz); left > 0; {
		k := min(len(buf)/8, left)
		src := buf[:8*k]
		if _, err := io.ReadFull(r, src); err != nil {
			return nil, fmt.Errorf("distenc: reading values: %w", err)
		}
		base := len(t.Val)
		t.Val = slices.Grow(t.Val, k)[:base+k]
		dst := t.Val[base:]
		if _, err := rdd.DecodeF64Vals(dst, src); err != nil {
			return nil, fmt.Errorf("distenc: reading values: %w", err)
		}
		for i, v := range dst {
			if !(math.Abs(v) <= math.MaxFloat64) { // false for ±Inf and NaN
				return nil, fmt.Errorf("distenc: binary tensor invalid: entry %d has non-finite value %v", base+i, v)
			}
		}
		left -= k
	}
	return t, nil
}
