package distenc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

// sameTensor describes the first difference between two tensors — dims,
// indices, or value bits — or returns "".
func sameTensor(got, want *Tensor) string {
	if fmt.Sprint(got.Dims) != fmt.Sprint(want.Dims) {
		return fmt.Sprintf("dims %v, want %v", got.Dims, want.Dims)
	}
	if len(got.Idx) != len(want.Idx) || len(got.Val) != len(want.Val) {
		return fmt.Sprintf("%d indices / %d values, want %d / %d", len(got.Idx), len(got.Val), len(want.Idx), len(want.Val))
	}
	for i := range got.Idx {
		if got.Idx[i] != want.Idx[i] {
			return fmt.Sprintf("index %d = %d, want %d", i, got.Idx[i], want.Idx[i])
		}
	}
	for e := range got.Val {
		if math.Float64bits(got.Val[e]) != math.Float64bits(want.Val[e]) {
			return fmt.Sprintf("value %d = %v (bits %x), want %v (bits %x)", e, got.Val[e], math.Float64bits(got.Val[e]), want.Val[e], math.Float64bits(want.Val[e]))
		}
	}
	return ""
}

// sameSimilarity describes the first difference between two graphs' node
// counts or adjacency lists — neighbour, order, weight bits — or returns "".
func sameSimilarity(got, want *Similarity) string {
	if got.N != want.N || len(got.Adj) != len(want.Adj) {
		return fmt.Sprintf("%d nodes (%d lists), want %d (%d)", got.N, len(got.Adj), want.N, len(want.Adj))
	}
	for x := range got.Adj {
		g, w := got.Adj[x], want.Adj[x]
		if len(g) != len(w) {
			return fmt.Sprintf("node %d: %d neighbours, want %d", x, len(g), len(w))
		}
		for k := range g {
			if g[k].To != w[k].To || math.Float64bits(g[k].Weight) != math.Float64bits(w[k].Weight) {
				return fmt.Sprintf("node %d neighbour %d: %+v, want %+v", x, k, g[k], w[k])
			}
		}
	}
	return ""
}

// dtz builds a DTZ1 image from its parts; payload is appended as is.
func dtz(order uint32, dims []uint64, nnz uint64, payload ...byte) []byte {
	b := binary.LittleEndian.AppendUint32([]byte("DTZ1"), order)
	for _, d := range dims {
		b = binary.LittleEndian.AppendUint64(b, d)
	}
	b = binary.LittleEndian.AppendUint64(b, nnz)
	return append(b, payload...)
}

// oomHeader is 40 bytes that promise an order-3 tensor of 2³³ entries and
// hold none of them. Allocating what the header promises before reading the
// payload kills the process; the reader must fail at the end of input.
var oomHeader = dtz(3, []uint64{10, 10, 10}, 1<<33)

// binarySeeds are the inputs of TestReadBinaryRejectsGarbage and a few valid
// and corrupted images.
func binarySeeds() [][]byte {
	seeds := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("DTZ1"),
		append([]byte("DTZ1"), 0, 0, 0, 0),
		append([]byte("DTZ1"), 0xFF, 0xFF, 0, 0),
		append([]byte("DTZ1"), 2, 0, 0, 0, 0, 0, 0),
		oomHeader,
	}
	ts := NewTensor(3, 4, 2)
	ts.Append([]int32{2, 3, 1}, 1.5)
	ts.Append([]int32{0, 0, 0}, -2)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, ts); err != nil {
		panic(err)
	}
	valid := buf.Bytes()
	badIndex := bytes.Clone(valid)
	badIndex[8+3*8+8] = 9
	nan := bytes.Clone(valid)
	binary.LittleEndian.PutUint64(nan[len(nan)-8:], math.Float64bits(math.NaN()))
	return append(seeds, valid, badIndex, nan, valid[:len(valid)-3])
}

// declaredPayload returns the payload size in bytes a DTZ1 header promises,
// and false if data holds no complete header.
func declaredPayload(data []byte) (uint64, bool) {
	if len(data) < 8 || string(data[:4]) != "DTZ1" {
		return 0, false
	}
	order := uint64(binary.LittleEndian.Uint32(data[4:]))
	if order == 0 || order > 16 || uint64(len(data)) < 16+8*order {
		return 0, false
	}
	nnz := binary.LittleEndian.Uint64(data[8+8*order:])
	if nnz > 1<<33 {
		return 0, false
	}
	return nnz * (4*order + 8), true
}

// FuzzReadBinary holds ReadBinary to the reference: the same accept/reject
// decision, and on accept the same dims, indices and value bits.
func FuzzReadBinary(f *testing.F) {
	for _, s := range binarySeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadBinary(bytes.NewReader(data))
		if size, ok := declaredPayload(data); ok && size > uint64(len(data)) {
			// A payload longer than the input: both readers refuse it, but the
			// reference allocates the promised size first, so it is not run.
			if err == nil {
				t.Fatalf("accepted a header promising %d payload bytes in a %d-byte input", size, len(data))
			}
			return
		}
		want, werr := refReadBinary(bytes.NewReader(data))
		if (err == nil) != (werr == nil) {
			t.Fatalf("ReadBinary error %v, reference error %v", err, werr)
		}
		if err == nil {
			if d := sameTensor(got, want); d != "" {
				t.Fatal(d)
			}
		}
	})
}

// cooSeeds are the inputs of TestReadCOOErrors plus the corners of the text
// language: signs, leading zeros, tabs, CRLF, Unicode spaces, long numbers,
// and values strconv alone parses.
var cooSeeds = []string{
	"",
	"1 2 3 4\n",
	"dims 0 3\n",
	"dims 3 3\n1 2\n",
	"dims 3 3\n5 0 1.0\n",
	"dims 3 3\n1 1 notanum\n",
	"dims 3 3\n# only comment1",
	"# comment\n\ndims 2 2\n0 1 3.5\n",
	"dims 4 5\r\n+3 -0 7\r\n\t0\v004\f-2.5e-3 \r\n",
	"dims 2 2\n1 1 1\n1 0\u00852\n",
	"dims 3\n0 123456789012345\n1 1234567890123456\n2 99999999999999999999\n",
	"dims 9223372036854775807 2\n0 0 0x1p-3\n1 1 -Inf\n",
	"dims 3000000000\n2147483648 1\n",
	"dims 2\n1 1_0\n0 +.5\n",
	// The edges of the common-line path, each between lines it takes: CRLF,
	// tabs and doubled spaces; a leading '+' and a 10-digit id; weights
	// strconv alone parses; a comment after the entries and a last line
	// without a newline; a U+00A0 separator; a field too many; an index past
	// its mode.
	"dims 4 5 6\r\n0 1 2 1\r\n3\t4\t5\t2\r\n1  2   3 -1 \r\n0 0 0 1\r\n",
	"dims 4 5 6\n0 1 2 1\n+1 2 3 1\n0000000001 2 3 1\n1 2 3 1\n1 2 3 1\n",
	"dims 4 5 6\n0 1 2 1e0\n1 2 3 -0\n2 3 4 0.5\n3 4 5 7\n# after the entries\n0 0 0 1",
	"dims 4 5 6\n0 0 0 1\n0\u00a01 2 3\n1 2 3 4\n1 2 3 4\n",
	"dims 4 5 6\n0 0 0 1\n0 1 2 3 4\n1 2 3 4\n1 2 3 4\n",
	"dims 4 5 6\n0 0 0 1\n4 0 0 1\n0 0 0 1\n0 0 0 1\n",
}

// FuzzReadCOO holds ReadCOO to the reference: the same decision, and on
// accept the same tensor bit for bit. Where the reference panics — an index
// past 2³¹−1 under a mode that large wraps to a negative int32 inside
// Tensor.Append — ReadCOO must refuse the input.
func FuzzReadCOO(f *testing.F) {
	for _, s := range cooSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadCOO(bytes.NewReader(data))
		want, werr := func() (ts *Tensor, err error) {
			defer func() {
				if p := recover(); p != nil {
					err = fmt.Errorf("reference panicked: %v", p)
				}
			}()
			return refReadCOO(bytes.NewReader(data))
		}()
		if (err == nil) != (werr == nil) {
			t.Fatalf("ReadCOO error %v, reference error %v", err, werr)
		}
		if err == nil {
			if d := sameTensor(got, want); d != "" {
				t.Fatal(d)
			}
		}
	})
}

// simSeeds are the inputs of TestReadSimilarityErrors plus the corners of the
// text language.
var simSeeds = []string{
	"",
	"0 1 1\n",
	"nodes x\n",
	"nodes 3\n0 1\n",
	"nodes 3\n0 9 1\n",
	"nodes 3\n1 1 1\n",
	"nodes 3\na b c\n",
	"nodes 5\n0 1 1\n3 4 2.5\n1 0 1\n# c\n\n2 1 -0\n",
	"  # lead\nnodes\t4\r\n0 3 1e-2\r\n3 2 1\n",
	"nodes 2147483648\n",
	"nodes 3\n0 2 NaN\n2 1 +Inf\n1 0 1e400\n",
	// The edges of the common-line path, as for cooSeeds.
	"nodes 12\r\n0 1 1\r\n2\t3\t1\r\n4  5   1 \r\n6 7 1\r\n8 9 1\r\n",
	"nodes 12\n0 1 1\n+1 2 1\n0000000003 4 1\n5 6 1\n1 2 1\n",
	"nodes 12\n0 1 1e0\n2 3 -0\n4 5 0.5\n6 7 1\n8 9 1\n# after the edges\n10 11 1",
	"nodes 12\n0 1 1\n0\u00a01 1\n2 3 1\n4 5 1\n",
	"nodes 12\n0 1 1\n0 1 2 3\n4 5 1\n6 7 1\n",
	"nodes 12\n0 1 1\n12 1 1\n3 3 1\n4 5 1\n6 7 1\n",
}

// FuzzReadSimilarity holds ReadSimilarity to the reference: the same
// decision, and on accept the same node count and adjacency lists, neighbour
// for neighbour in order, weight bits included.
func FuzzReadSimilarity(f *testing.F) {
	for _, s := range simSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if n := declaredNodes(data); n > 1<<20 {
			// Both readers allocate the adjacency of every node a header
			// declares before the first edge; past 2³¹−1, where ReadSimilarity
			// refuses the header, the reference would allocate it.
			t.Skip("header declares more nodes than a fuzz worker should allocate")
		}
		got, err := ReadSimilarity(bytes.NewReader(data))
		want, werr := refReadSimilarity(bytes.NewReader(data))
		if (err == nil) != (werr == nil) {
			t.Fatalf("ReadSimilarity error %v, reference error %v", err, werr)
		}
		if err == nil {
			if d := sameSimilarity(got, want); d != "" {
				t.Fatal(d)
			}
		}
	})
}

// declaredNodes returns the node count of data's "nodes N" header as the
// reference reads it, or 0.
func declaredNodes(data []byte) int {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if f := strings.Fields(text); len(f) == 2 && f[0] == "nodes" {
			n, _ := strconv.Atoi(f[1])
			return n
		}
		return 0
	}
	return 0
}
