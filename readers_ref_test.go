package distenc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// The three readers as they were before they decoded in place and shared one
// tokenizer: bufio.Scanner lines, strings.Fields, strconv on every field,
// AddEdge per similarity line, and binary.Read into full-size slices followed
// by Tensor.Validate. They are the references the Fuzz* targets hold the
// production readers to — the same accept/reject decision and, on accept, the
// same tensor or graph bit for bit — and what the /ref siblings of the I/O
// benchmarks run.

func refReadBinary(r io.Reader) (*Tensor, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("distenc: reading magic: %w", err)
	}
	if magic != dtzMagic {
		return nil, fmt.Errorf("distenc: bad magic %q, want %q", magic, dtzMagic)
	}
	var order uint32
	if err := binary.Read(br, binary.LittleEndian, &order); err != nil {
		return nil, err
	}
	if order == 0 || order > 16 {
		return nil, fmt.Errorf("distenc: implausible tensor order %d", order)
	}
	dims := make([]int, order)
	for i := range dims {
		var d uint64
		if err := binary.Read(br, binary.LittleEndian, &d); err != nil {
			return nil, err
		}
		if d == 0 || d > math.MaxInt32 {
			return nil, fmt.Errorf("distenc: implausible dimension %d", d)
		}
		dims[i] = int(d)
	}
	var nnz uint64
	if err := binary.Read(br, binary.LittleEndian, &nnz); err != nil {
		return nil, err
	}
	const maxNNZ = 1 << 33
	if nnz > maxNNZ {
		return nil, fmt.Errorf("distenc: implausible nnz %d", nnz)
	}
	t := NewTensor(dims...)
	t.Idx = make([]int32, int(nnz)*int(order))
	t.Val = make([]float64, nnz)
	if err := binary.Read(br, binary.LittleEndian, t.Idx); err != nil {
		return nil, fmt.Errorf("distenc: reading indices: %w", err)
	}
	if err := binary.Read(br, binary.LittleEndian, t.Val); err != nil {
		return nil, fmt.Errorf("distenc: reading values: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("distenc: binary tensor invalid: %w", err)
	}
	return t, nil
}

func refReadCOO(r io.Reader) (*Tensor, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var t *Tensor
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if t == nil {
			if fields[0] != "dims" || len(fields) < 2 {
				return nil, fmt.Errorf("distenc: line %d: expected \"dims I1 I2 …\" header, got %q", line, text)
			}
			dims := make([]int, len(fields)-1)
			for i, f := range fields[1:] {
				d, err := strconv.Atoi(f)
				if err != nil || d <= 0 {
					return nil, fmt.Errorf("distenc: line %d: bad dimension %q", line, f)
				}
				dims[i] = d
			}
			t = NewTensor(dims...)
			continue
		}
		if len(fields) != t.Order()+1 {
			return nil, fmt.Errorf("distenc: line %d: want %d indices + value, got %d fields", line, t.Order(), len(fields))
		}
		idx := make([]int32, t.Order())
		for i := 0; i < t.Order(); i++ {
			v, err := strconv.Atoi(fields[i])
			if err != nil || v < 0 || v >= t.Dims[i] {
				return nil, fmt.Errorf("distenc: line %d: bad index %q for mode %d", line, fields[i], i)
			}
			idx[i] = int32(v)
		}
		val, err := strconv.ParseFloat(fields[t.Order()], 64)
		if err != nil {
			return nil, fmt.Errorf("distenc: line %d: bad value %q", line, fields[t.Order()])
		}
		t.Append(idx, val)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if t == nil {
		return nil, fmt.Errorf("distenc: empty COO input")
	}
	return t, nil
}

func refReadSimilarity(r io.Reader) (*Similarity, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var s *Similarity
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if s == nil {
			if fields[0] != "nodes" || len(fields) != 2 {
				return nil, fmt.Errorf("distenc: line %d: expected \"nodes N\" header", line)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("distenc: line %d: bad node count %q", line, fields[1])
			}
			s = NewSimilarity(n)
			continue
		}
		if len(fields) != 3 {
			return nil, fmt.Errorf("distenc: line %d: want \"i j weight\"", line)
		}
		i, err1 := strconv.Atoi(fields[0])
		j, err2 := strconv.Atoi(fields[1])
		w, err3 := strconv.ParseFloat(fields[2], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("distenc: line %d: bad edge %q", line, text)
		}
		if i < 0 || j < 0 || i >= s.N || j >= s.N || i == j {
			return nil, fmt.Errorf("distenc: line %d: edge (%d,%d) out of range", line, i, j)
		}
		s.AddEdge(i, j, w)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if s == nil {
		return nil, fmt.Errorf("distenc: empty similarity input")
	}
	return s, nil
}
