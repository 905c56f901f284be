package distenc

import (
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"strings"
	"testing"
)

// TestReadSimilarityAdjMatchesAddEdge: the adjacency ReadSimilarity lays out
// in one backing array is, node by node, the list AddEdge in file order
// builds — neighbours in file order whichever endpoint a line names first,
// repeated edges kept, weight bits equal — and each list is capped, so an
// AddEdge after the read grows one node's list without writing into the
// next one's.
func TestReadSimilarityAdjMatchesAddEdge(t *testing.T) {
	rng := rand.New(rand.NewPCG(34, 1))
	const n = 200
	want := NewSimilarity(n)
	var text strings.Builder
	fmt.Fprintf(&text, "# a similarity\nnodes %d\n", n)
	weights := []string{"1", "2.5", "-0.125", "3e-3", "0x1p-4", "-0", "7"}
	for e := 0; e < 1500; e++ {
		// Node n-1 is never drawn: its list stays nil. Node 0 gets many.
		i := rng.IntN(n - 1)
		if e%11 == 5 {
			i = 0
		}
		j := rng.IntN(n - 2)
		if j >= i {
			j++
		}
		w := weights[rng.IntN(len(weights))]
		fmt.Fprintf(&text, "%d\t%d %s\n", i, j, w)
		if e%13 == 0 {
			text.WriteString("\n  # between edges\n")
		}
		v, _ := parseValue([]byte(w))
		want.AddEdge(i, j, v)
	}
	got, err := ReadSimilarity(strings.NewReader(text.String()))
	if err != nil {
		t.Fatal(err)
	}
	if d := sameSimilarity(got, want); d != "" {
		t.Fatal(d)
	}
	for x := range got.Adj {
		if len(got.Adj[x]) == 0 && got.Adj[x] != nil {
			t.Fatalf("node %d: an empty list that is not nil, unlike AddEdge's", x)
		}
	}
	got.AddEdge(0, 1, 9)
	want.AddEdge(0, 1, 9)
	got.AddEdge(1, 2, 8)
	want.AddEdge(1, 2, 8)
	if d := sameSimilarity(got, want); d != "" {
		t.Fatalf("after AddEdge on the read graph: %s", d)
	}
}

// communityGraph links each of n nodes to about deg others of its community
// (12 consecutive blocks), each pair once, with weight 1 — the shape of the
// facebook-sim similarities the solve workloads read.
func communityGraph(n, deg int, seed uint64) *Similarity {
	rng := rand.New(rand.NewPCG(seed, 0x51e5))
	s := NewSimilarity(n)
	seen := map[[2]int]bool{}
	const blocks = 12
	for i := 0; i < n; i++ {
		lo, hi := i*blocks/n*n/blocks, (i*blocks/n+1)*n/blocks
		for k := 0; k < deg; k++ {
			j := lo + rng.IntN(hi-lo)
			key := [2]int{min(i, j), max(i, j)}
			if j == i || seen[key] {
				continue
			}
			seen[key] = true
			s.AddEdge(i, j, 1)
		}
	}
	return s
}

// The input path's ledger rows (BENCH_io.json), each with a /ref sibling
// that runs the reader it replaced, the reference of the Fuzz* targets, on
// the same bytes in the same process; scripts/bench_compare.sh gates each on
// its share of the sibling and on allocs/op.

// BenchmarkReadSimilarity reads one of solve-highdim's two similarity files:
// 25 000 nodes, about 75 000 edges, as WriteSimilarity writes them.
func BenchmarkReadSimilarity(b *testing.B) {
	var buf bytes.Buffer
	if err := WriteSimilarity(&buf, communityGraph(25_000, 3, 1)); err != nil {
		b.Fatal(err)
	}
	benchReader(b, "edges_75k", buf.Bytes(), ReadSimilarity, refReadSimilarity)
}

// BenchmarkReadBinary reads a DTZ1 tensor of solve-fiber's size: 12 000 ×
// 12 000 × 5, 6·10⁵ non-zeros.
func BenchmarkReadBinary(b *testing.B) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, GenerateScalability([]int{12_000, 12_000, 5}, 600_000, 1)); err != nil {
		b.Fatal(err)
	}
	benchReader(b, "solve_fiber", buf.Bytes(), ReadBinary, refReadBinary)
}

// BenchmarkReadCOO reads 10⁵ entries of COO text, the size of the
// benchmark's distenc.read_coo_ns_per_nnz probe.
func BenchmarkReadCOO(b *testing.B) {
	var buf bytes.Buffer
	if err := WriteCOO(&buf, GenerateScalability([]int{15_000, 15_000, 15_000}, 100_000, 1)); err != nil {
		b.Fatal(err)
	}
	benchReader(b, "nnz_100k", buf.Bytes(), ReadCOO, refReadCOO)
}

// benchReader runs read and its reference over data as name and name/ref,
// reporting MB/s.
func benchReader[T any](b *testing.B, name string, data []byte, read, ref func(io.Reader) (T, error)) {
	for _, bench := range []struct {
		name string
		read func(io.Reader) (T, error)
	}{{name, read}, {name + "/ref", ref}} {
		b.Run(bench.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bench.read(bytes.NewReader(data)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
