package distenc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"distenc/internal/graph"
)

// The two text formats, COO tensors and similarity graphs, share one line
// tokenizer. A line is at most maxLine bytes, newline included; blank lines
// and lines whose first field starts with '#' are skipped; fields are
// separated by white space.

const maxLine = 1 << 20

// textLines reads the lines of a text input in place: each line is a view
// into the reader's buffer and each field a view into its line, valid until
// the next call. Only a line holding a byte outside ASCII is copied. Once a
// reader sets ids, a common line (commonLine) is parsed in the buffer instead.
type textLines struct {
	br     *bufio.Reader
	no     int     // 1-based number of the line last read
	line   []byte  // that line, terminator included, unless common
	cut    []int   // field k is line[cut[2k]:cut[2k+1]]
	wide   []byte  // the copy a line with a byte outside ASCII is split in
	ids    []int32 // a common line's ids; nil until the reader sets them
	dims   []int   // ids[k] < dims[k] on a common line
	val    float64 // the value of a common line
	common bool    // the line last read was common: ids and val hold it
	ahead  []byte  // the bytes buffered after the line last read
	eof    bool
}

func newTextLines(r io.Reader) *textLines {
	return &textLines{br: bufio.NewReaderSize(r, maxLine)}
}

// next advances to the next line that is neither blank nor a comment and
// reports whether there is one; a read error, or a line longer than maxLine,
// is returned as err.
func (tl *textLines) next() (bool, error) {
	if tl.ids != nil {
		if k, v := commonLine(tl.ahead, tl.ids, tl.dims); k > 0 {
			tl.ahead, tl.no = tl.ahead[k:], tl.no+1
			tl.val, tl.common = v, true
			return true, nil
		}
		tl.br.Discard(tl.br.Buffered() - len(tl.ahead)) // the common lines
	}
	tl.common = false
	for !tl.eof {
		line, err := tl.br.ReadSlice('\n')
		switch {
		case err == io.EOF:
			tl.eof = true
			if len(line) == 0 {
				return false, nil
			}
		case errors.Is(err, bufio.ErrBufferFull):
			return false, fmt.Errorf("distenc: line %d is longer than %d bytes", tl.no+1, maxLine)
		case err != nil:
			return false, err
		}
		tl.no++
		tl.split(line)
		if tl.fields() > 0 && tl.line[tl.cut[0]] != '#' {
			tl.ahead, _ = tl.br.Peek(tl.br.Buffered())
			return true, nil
		}
	}
	return false, nil
}

// commonLine parses the line at the head of b if it takes the common form —
// len(ids) decimal ids of up to 8 digits, each below its dims entry, then a
// value parseValue takes, split by ASCII white space, each field with 9 bytes
// of b from its head, and a '\n' in b — into ids, and returns its length and
// value; else 0. Such a line is ASCII, so the field cutter would find the
// same fields and numbers in it.
func commonLine(b []byte, ids []int32, dims []int) (int, float64) {
	i, v := 0, 0.0
	for k := 0; k <= len(ids); k++ {
		for i < len(b) && isBlank(b[i]) {
			i++
		}
		if len(b)-i < 9 {
			return 0, 0
		}
		u, n := leadingDigits(binary.LittleEndian.Uint64(b[i:]))
		switch {
		case k < len(ids) && (n == 0 || !isBlank(b[i+n]) || u >= uint64(dims[k])):
			return 0, 0
		case k < len(ids):
			ids[k] = int32(u)
		case n == 0 || !isSpace(b[i+n]):
			// A value other than up to 8 digits is cut at the next space
			// and parsed there; one of up to 8 digits is below 2⁵³, and
			// float64 of it is exact, as in parseValue.
			start, ok := i, false
			for n = 0; i < len(b) && !isSpace(b[i]); i++ {
			}
			if v, ok = parseValue(b[start:i]); !ok {
				return 0, 0
			}
		default:
			v = float64(u)
		}
		i += n
	}
	for i < len(b) && isBlank(b[i]) {
		i++
	}
	if i == len(b) || b[i] != '\n' {
		return 0, 0
	}
	return i + 1, v
}

// leadingDigits returns the decimal number that the 8 bytes of x (first byte
// lowest) start with, and its digit count. The first byte that is not a digit
// ends the number; a byte below '0' borrows from the bytes above it in d,
// which the shift drops. Three multiplies fold the digits pairwise.
func leadingDigits(x uint64) (uint64, int) {
	d := x - 0x3030303030303030
	n := bits.TrailingZeros64((d|(x+0x4646464646464646))&0x8080808080808080) / 8
	d = d << (64 - 8*n) * (10<<8 + 1) >> 8
	d = (d & 0x00FF00FF00FF00FF) * (100<<16 + 1) >> 16
	return (d & 0x0000FFFF0000FFFF) * (10000<<32 + 1) >> 32, n
}

// fields returns the number of fields of the current line.
func (tl *textLines) fields() int { return len(tl.cut) / 2 }

// field returns field k of the current line.
func (tl *textLines) field(k int) []byte { return tl.line[tl.cut[2*k]:tl.cut[2*k+1]] }

// text is the current line without its surrounding white space, for error
// messages.
func (tl *textLines) text() string { return strings.TrimSpace(string(tl.line)) }

// split makes line the current one and cuts it into its fields: the runs of
// bytes between ASCII white space. A line with a byte outside ASCII is cut
// again in a copy with every Unicode space (U+0085, U+00A0, …) replaced by
// ' ', so its fields are the ones strings.Fields finds.
func (tl *textLines) split(line []byte) {
	if !tl.cutFields(line) {
		return
	}
	tl.wide = tl.wide[:0]
	for len(line) > 0 {
		r, size := utf8.DecodeRune(line)
		if unicode.IsSpace(r) {
			tl.wide = append(tl.wide, ' ')
		} else {
			tl.wide = append(tl.wide, line[:size]...)
		}
		line = line[size:]
	}
	tl.cutFields(tl.wide)
}

// cutFields makes line the current one and records its fields, the runs of
// bytes between ASCII white space; it reports whether line holds a byte
// outside ASCII.
func (tl *textLines) cutFields(line []byte) (wide bool) {
	cut := tl.cut[:0]
	var or byte
	for i := 0; i < len(line); {
		for ; i < len(line) && isSpace(line[i]); i++ {
		}
		start := i
		for ; i < len(line) && !isSpace(line[i]); i++ {
			or |= line[i]
		}
		if i > start {
			cut = append(cut, start, i)
		}
	}
	tl.line, tl.cut = line, cut
	return or >= utf8.RuneSelf
}

// isSpace reports whether c is ASCII white space: ' ', \t, \n, \v, \f or \r.
func isSpace(c byte) bool { return c == ' ' || c-'\t' <= '\r'-'\t' }

// isBlank reports whether c is ASCII white space other than '\n'.
func isBlank(c byte) bool { return c != '\n' && isSpace(c) }

// grow returns s with room for per more elements, the share of one line.
// When it has to grow, it makes room for every line buffered ahead as well,
// so that an input the buffer holds lands in storage of its exact size, and
// it at least doubles s: append's 1.25× steps would copy and discard several
// times what a reader keeps.
func grow[S ~[]E, E any](tl *textLines, s S, per int) S {
	if cap(s)-len(s) < per {
		s = slices.Grow(s, max(per*(1+bytes.Count(tl.ahead, []byte{'\n'})), len(s)))
	}
	return s
}

// unsigned returns b without a leading '+' or '-'.
func unsigned(b []byte) []byte {
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		return b[1:]
	}
	return b
}

// decimal parses digits, too few to overflow an int, and reports whether
// they were all decimal.
func decimal(digits []byte) (int, bool) {
	v := 0
	for _, c := range digits {
		if c-'0' > 9 {
			return 0, false
		}
		v = v*10 + int(c-'0')
	}
	return v, true
}

// atoi parses what strconv.Atoi accepts — an optional sign, then decimal
// digits — and reports whether b was one. Up to 18 digits cannot overflow
// and are parsed in place; longer ones go to strconv.
func atoi(b []byte) (int, bool) {
	digits := unsigned(b)
	if len(digits) == 0 || len(digits) > 18 {
		v, err := strconv.Atoi(string(b))
		return v, err == nil
	}
	v, ok := decimal(digits)
	if b[0] == '-' {
		v = -v
	}
	return v, ok
}

// parseValue parses what strconv.ParseFloat accepts. An integer of up to 15
// digits is below 2⁵³, so float64 of it is the value ParseFloat rounds to,
// exactly; anything else goes to strconv.
func parseValue(b []byte) (float64, bool) {
	if digits := unsigned(b); len(digits) > 0 && len(digits) <= 15 {
		if u, ok := decimal(digits); ok {
			v := float64(u)
			if b[0] == '-' {
				v = -v // -0 included
			}
			return v, true
		}
	}
	v, err := strconv.ParseFloat(string(b), 64)
	return v, err == nil
}

// ReadCOO parses a sparse tensor from the text format written by WriteCOO:
// a header line "dims I1 I2 … IN" followed by one "i1 i2 … iN value" line
// per entry (0-based indices). Blank lines and lines starting with '#' are
// ignored.
func ReadCOO(r io.Reader) (*Tensor, error) {
	tl := newTextLines(r)
	var t *Tensor
	for {
		ok, err := tl.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if t == nil {
			if string(tl.field(0)) != "dims" || tl.fields() < 2 {
				return nil, fmt.Errorf("distenc: line %d: expected \"dims I1 I2 …\" header, got %q", tl.no, tl.text())
			}
			dims := make([]int, tl.fields()-1)
			for i := range dims {
				f := tl.field(1 + i)
				d, ok := atoi(f)
				if !ok || d <= 0 {
					return nil, fmt.Errorf("distenc: line %d: bad dimension %q", tl.no, f)
				}
				dims[i] = d
			}
			t = NewTensor(dims...)
			tl.ids, tl.dims = make([]int32, len(dims)), dims
			continue
		}
		order := t.Order()
		if !tl.common {
			if tl.fields() != order+1 {
				return nil, fmt.Errorf("distenc: line %d: want %d indices + value, got %d fields", tl.no, order, tl.fields())
			}
			for i := 0; i < order; i++ {
				f := tl.field(i)
				v, ok := atoi(f)
				if !ok || v < 0 || v >= t.Dims[i] || v > math.MaxInt32 {
					return nil, fmt.Errorf("distenc: line %d: bad index %q for mode %d", tl.no, f, i)
				}
				tl.ids[i] = int32(v)
			}
			if tl.val, ok = parseValue(tl.field(order)); !ok {
				return nil, fmt.Errorf("distenc: line %d: bad value %q", tl.no, tl.field(order))
			}
		}
		t.Idx = append(grow(tl, t.Idx, order), tl.ids...)
		t.Val = append(grow(tl, t.Val, 1), tl.val)
	}
	if t == nil {
		return nil, fmt.Errorf("distenc: empty COO input")
	}
	return t, nil
}

// WriteCOO writes the ReadCOO text format.
func WriteCOO(w io.Writer, t *Tensor) error {
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, "dims")
	for _, d := range t.Dims {
		fmt.Fprintf(bw, " %d", d)
	}
	fmt.Fprintln(bw)
	for e := 0; e < t.NNZ(); e++ {
		for _, i := range t.Index(e) {
			fmt.Fprintf(bw, "%d ", i)
		}
		fmt.Fprintf(bw, "%g\n", t.Val[e])
	}
	return bw.Flush()
}

// simEdge is one "i j weight" line of a similarity file.
type simEdge struct {
	i, j int32
	w    float64
}

// ReadSimilarity parses a similarity graph: a header "nodes N" then one
// "i j weight" line per undirected edge.
func ReadSimilarity(r io.Reader) (*Similarity, error) {
	tl := newTextLines(r)
	n := 0
	var edges []simEdge
	for {
		ok, err := tl.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if n == 0 {
			if string(tl.field(0)) != "nodes" || tl.fields() != 2 {
				return nil, fmt.Errorf("distenc: line %d: expected \"nodes N\" header", tl.no)
			}
			// Edge endpoints are int32: a larger graph cannot be indexed.
			v, ok := atoi(tl.field(1))
			if !ok || v <= 0 || v > math.MaxInt32 {
				return nil, fmt.Errorf("distenc: line %d: bad node count %q", tl.no, tl.field(1))
			}
			n = v
			tl.ids, tl.dims = make([]int32, 2), []int{n, n}
			continue
		}
		if !tl.common {
			if tl.fields() != 3 {
				return nil, fmt.Errorf("distenc: line %d: want \"i j weight\"", tl.no)
			}
			i, ok1 := atoi(tl.field(0))
			j, ok2 := atoi(tl.field(1))
			w, ok3 := parseValue(tl.field(2))
			if !ok1 || !ok2 || !ok3 {
				return nil, fmt.Errorf("distenc: line %d: bad edge %q", tl.no, tl.text())
			}
			if i < 0 || j < 0 || i >= n || j >= n {
				return nil, fmt.Errorf("distenc: line %d: edge (%d,%d) out of range", tl.no, i, j)
			}
			tl.ids[0], tl.ids[1], tl.val = int32(i), int32(j), w
		}
		if i, j := tl.ids[0], tl.ids[1]; i == j {
			return nil, fmt.Errorf("distenc: line %d: edge (%d,%d) out of range", tl.no, i, j)
		}
		edges = append(grow(tl, edges, 1), simEdge{tl.ids[0], tl.ids[1], tl.val})
	}
	if n == 0 {
		return nil, fmt.Errorf("distenc: empty similarity input")
	}
	return adjacency(n, edges), nil
}

// adjacency lays the edges out in one backing array by counting sort: each
// node's neighbours are a capped sub-slice of it, in file order — element for
// element what AddEdge in file order builds, so NewLaplacian's CSR and every
// B-step bit are the same. off[x] counts node x's neighbours, then holds where
// its list starts, then, advanced by the fill, where it ends.
func adjacency(n int, edges []simEdge) *Similarity {
	off := make([]int, n)
	for _, e := range edges {
		off[e.i]++
		off[e.j]++
	}
	at := 0
	for x, d := range off {
		off[x] = at
		at += d
	}
	all := make([]graph.Edge, 2*len(edges))
	for _, e := range edges {
		all[off[e.i]] = graph.Edge{To: e.j, Weight: e.w}
		off[e.i]++
		all[off[e.j]] = graph.Edge{To: e.i, Weight: e.w}
		off[e.j]++
	}
	s := NewSimilarity(n)
	lo := 0
	for x := range s.Adj {
		if hi := off[x]; lo < hi {
			s.Adj[x] = all[lo:hi:hi]
			lo = hi
		}
	}
	return s
}

// WriteSimilarity writes the ReadSimilarity text format.
func WriteSimilarity(w io.Writer, s *Similarity) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "nodes %d\n", s.N)
	for i, edges := range s.Adj {
		for _, e := range edges {
			if int(e.To) > i { // write each undirected edge once
				fmt.Fprintf(bw, "%d %d %g\n", i, e.To, e.Weight)
			}
		}
	}
	return bw.Flush()
}
