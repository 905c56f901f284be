package distenc

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
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
// the next call. Only a line holding a byte outside ASCII is copied.
type textLines struct {
	br   *bufio.Reader
	no   int    // 1-based number of the line last read
	line []byte // that line, terminator included
	cut  []int  // field k is line[cut[2k]:cut[2k+1]]
	wide []byte // the copy a line with a byte outside ASCII is split in
	eof  bool
}

func newTextLines(r io.Reader) *textLines {
	return &textLines{br: bufio.NewReaderSize(r, maxLine)}
}

// next advances to the next line that is neither blank nor a comment and
// reports whether there is one; a read error, or a line longer than maxLine,
// is returned as err.
func (tl *textLines) next() (bool, error) {
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
			return true, nil
		}
	}
	return false, nil
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

// grow returns s with room for n more elements, doubling its capacity when
// it has to grow: the readers do not know their entry count up front, and
// append's 1.25× steps would copy and discard several times what they keep.
func grow[S ~[]E, E any](s S, n int) S {
	if cap(s)-len(s) < n {
		s = slices.Grow(s, max(n, len(s)))
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
			continue
		}
		order := t.Order()
		if tl.fields() != order+1 {
			return nil, fmt.Errorf("distenc: line %d: want %d indices + value, got %d fields", tl.no, order, tl.fields())
		}
		t.Idx = grow(t.Idx, order)
		for i := 0; i < order; i++ {
			f := tl.field(i)
			v, ok := atoi(f)
			if !ok || v < 0 || v >= t.Dims[i] || v > math.MaxInt32 {
				return nil, fmt.Errorf("distenc: line %d: bad index %q for mode %d", tl.no, f, i)
			}
			t.Idx = append(t.Idx, int32(v))
		}
		val, ok := parseValue(tl.field(order))
		if !ok {
			return nil, fmt.Errorf("distenc: line %d: bad value %q", tl.no, tl.field(order))
		}
		t.Val = append(grow(t.Val, 1), val)
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
			continue
		}
		if tl.fields() != 3 {
			return nil, fmt.Errorf("distenc: line %d: want \"i j weight\"", tl.no)
		}
		i, ok1 := atoi(tl.field(0))
		j, ok2 := atoi(tl.field(1))
		w, ok3 := parseValue(tl.field(2))
		if !ok1 || !ok2 || !ok3 {
			return nil, fmt.Errorf("distenc: line %d: bad edge %q", tl.no, tl.text())
		}
		if i < 0 || j < 0 || i >= n || j >= n || i == j {
			return nil, fmt.Errorf("distenc: line %d: edge (%d,%d) out of range", tl.no, i, j)
		}
		edges = append(grow(edges, 1), simEdge{int32(i), int32(j), w})
	}
	if n == 0 {
		return nil, fmt.Errorf("distenc: empty similarity input")
	}
	return adjacency(n, edges), nil
}

// adjacency lays the edges out in one backing array by counting sort: each
// node's neighbours are a capped sub-slice of it, in file order — element for
// element what AddEdge in file order builds, so NewLaplacian's CSR and every
// B-step bit are the same.
func adjacency(n int, edges []simEdge) *Similarity {
	off := make([]int, n+1)
	for _, e := range edges {
		off[e.i+1]++
		off[e.j+1]++
	}
	for x := range n {
		off[x+1] += off[x]
	}
	all := make([]graph.Edge, 2*len(edges))
	next := slices.Clone(off[:n])
	for _, e := range edges {
		all[next[e.i]] = graph.Edge{To: e.j, Weight: e.w}
		next[e.i]++
		all[next[e.j]] = graph.Edge{To: e.i, Weight: e.w}
		next[e.j]++
	}
	s := NewSimilarity(n)
	for x := range s.Adj {
		if lo, hi := off[x], off[x+1]; lo < hi {
			s.Adj[x] = all[lo:hi:hi]
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
