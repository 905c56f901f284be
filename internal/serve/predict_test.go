package serve

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"distenc/internal/mat"
	"distenc/internal/sptensor"
)

// randomModel is a served generation over factors drawn from seed, built
// without a checkpoint file.
func randomModel(dims []int, rank int, seed uint64) *Model {
	rng := rand.New(rand.NewPCG(seed, 28))
	fs := make([]*mat.Dense, len(dims))
	for n, d := range dims {
		vals := make([]float64, d*rank)
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		fs[n] = mat.NewDenseData(d, rank, vals)
	}
	return &Model{Name: "m", kruskal: sptensor.NewKruskal(fs...), stats: &modelStats{}}
}

// uniformCells draws count cells uniformly over the model's index space.
func uniformCells(m *Model, count int, seed uint64) []int32 {
	rng := rand.New(rand.NewPCG(seed, 29))
	dims := m.Dims()
	flat := make([]int32, count*len(dims))
	for i := range flat {
		flat[i] = int32(rng.IntN(dims[i%len(dims)]))
	}
	return flat
}

// TestPredictBatchMatchesKruskalAtBits holds the one predict kernel to the
// reference it replaced three functions with: at every order, at ranks on
// both sides of a loop unroll (32, 33) and of the stack slab (1 024, 1 025),
// and at batch sizes on both sides of a tile boundary, every value is
// bit-equal to sptensor.Kruskal.At — repeated cells included — and a batch
// with one bad index anywhere is rejected whole.
func TestPredictBatchMatchesKruskalAtBits(t *testing.T) {
	allDims := []int{7, 5, 4, 3, 2}
	for order := 1; order <= 5; order++ {
		for _, rank := range []int{1, 7, 32, 33, 1024, 1025} {
			m := randomModel(allDims[:order], rank, uint64(100*order+rank))
			tile := max(1, predictTile/rank)
			for _, count := range []int{0, 1, tile - 1, tile, tile + 1, 1000} {
				flat := uniformCells(m, count, uint64(count))
				if count > 3 { // the same cell twice in one tile, and across the batch
					copy(flat[order:2*order], flat[:order])
					copy(flat[(count-1)*order:], flat[:order])
				}
				name := fmt.Sprintf("order=%d/R=%d/count=%d", order, rank, count)
				before := m.Stats()
				got, err := m.PredictBatch(order, flat, []float64{-1})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if len(got) != 1+count || got[0] != -1 {
					t.Fatalf("%s: %d values after the one out held (first %v), want %d appended", name, len(got), got[0], count)
				}
				for c := 0; c < count; c++ {
					idx := flat[c*order : (c+1)*order]
					if want := m.Kruskal().At(idx); math.Float64bits(got[1+c]) != math.Float64bits(want) {
						t.Fatalf("%s: cell %d %v = %v (bits %x), want %v (bits %x)",
							name, c, idx, got[1+c], math.Float64bits(got[1+c]), want, math.Float64bits(want))
					}
				}
				if st := m.Stats(); st.Queries != before.Queries+1 || st.Cells != before.Cells+int64(count) {
					t.Fatalf("%s: stats moved %d queries, %d cells", name, st.Queries-before.Queries, st.Cells-before.Cells)
				}

				// One bad index — past the end or negative — at the first, a
				// middle and the last cell: the batch is refused, out is
				// returned as it came, and the message names that cell's index.
				if count == 0 {
					continue
				}
				for _, c := range []int{0, count / 2, count - 1} {
					mode := c % order
					for _, bad := range []int32{int32(allDims[mode]), -1} {
						broken := append([]int32(nil), flat...)
						broken[c*order+mode] = bad
						before := m.Stats()
						got, err := m.PredictBatch(order, broken, []float64{-1})
						want := fmt.Sprintf("index %d out of range for mode %d (size %d)", bad, mode, allDims[mode])
						if err == nil || !strings.Contains(err.Error(), want) {
							t.Fatalf("%s: bad index %d at cell %d: %v, want %q", name, bad, c, err, want)
						}
						if len(got) != 1 || got[0] != -1 {
							t.Fatalf("%s: a refused batch appended to out: %v", name, got)
						}
						if st := m.Stats(); st.Queries != before.Queries || st.Cells != before.Cells {
							t.Fatalf("%s: a refused batch was counted", name)
						}
					}
				}
			}
		}
	}

	// Two bad cells: the message is the first one's in cell order, though the
	// mode-by-mode scan meets the later cell's mode-0 index first.
	m := randomModel(allDims[:3], 4, 1)
	_, err := m.PredictBatch(3, []int32{0, 0, 0, 1, 1, 9, 8, 0, 0}, nil)
	if err == nil || !strings.Contains(err.Error(), "index 9 out of range for mode 2 (size 4)") {
		t.Fatalf("two bad cells: %v, want the first offending cell's", err)
	}
	if _, err := m.PredictBatch(2, []int32{0, 0}, nil); err == nil || !strings.Contains(err.Error(), "order-2 cells for an order-3 model") {
		t.Fatalf("wrong order: %v", err)
	}
	if _, err := m.PredictBatch(3, []int32{0, 0, 0, 1}, nil); err == nil || !strings.Contains(err.Error(), "do not tile") {
		t.Fatalf("ragged batch: %v", err)
	}
}

// TestPredictHandlerSteadyStateZeroAlloc: a warm connection handler answers a
// predict request — parse, registry lookup, validation, kernel, encode —
// without allocating, at the batch size of a scoring caller and at batch 1.
// The serve CI job runs it once more without the race detector, whose
// instrumentation is free to allocate.
func TestPredictHandlerSteadyStateZeroAlloc(t *testing.T) {
	m := randomModel([]int{300, 200, 10}, 32, 5)
	// Longer than the 32 bytes a non-escaping string conversion gets on the
	// stack, so the lookup is held to not converting at all.
	m.Name = "ratings-" + strings.Repeat("x", 40)
	reg := NewRegistry()
	reg.Put(m)
	s := &Server{reg: reg}
	for _, batch := range []int{256, 1} {
		flat := uniformCells(m, batch, 7)
		body := appendPredictBody(nil, m.Name, 3, flat)
		var sc predictScratch
		var buf []byte
		run := func() {
			var status uint8
			status, buf = s.handle(opPredict, body, buf[:0], &sc)
			if status != stOK || len(buf) != 8*batch {
				t.Fatalf("batch %d: status %d, %d reply bytes", batch, status, len(buf))
			}
		}
		run() // warm: the scratch and the reply buffer grow once
		if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
			t.Errorf("batch %d: %v allocations per predict request on a warm handler, want 0", batch, allocs)
		}
		want := m.Kruskal().At(flat[:3])
		if got := math.Float64frombits(binary.LittleEndian.Uint64(buf)); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("batch %d: first value %v, want %v", batch, got, want)
		}
	}
}

// TestPredictScratchBounded: a connection keeps its scratch from request to
// request up to 1 MiB a slice; one oversized batch is answered and its
// buffers let go, instead of staying pinned for the life of the connection.
func TestPredictScratchBounded(t *testing.T) {
	m := randomModel([]int{50, 40, 30}, 2, 6)
	reg := NewRegistry()
	reg.Put(m)
	s := &Server{reg: reg}
	var sc predictScratch
	for _, tc := range []struct {
		cells     int
		keepFlat  bool
		keepPreds bool
	}{
		{1000, true, true},
		{maxScratchBytes/12 + 1, false, true}, // 3 indices a cell: flat just over, preds under
		{maxScratchBytes/8 + 1, false, false},
		{10, true, true},
	} {
		body := appendPredictBody(nil, "m", 3, uniformCells(m, tc.cells, 8))
		if status, reply := s.handle(opPredict, body, nil, &sc); status != stOK || len(reply) != 8*tc.cells {
			t.Fatalf("%d cells: status %d, %d reply bytes", tc.cells, status, len(reply))
		}
		if kept := sc.flat != nil; kept != tc.keepFlat {
			t.Errorf("%d cells: index scratch kept = %v (cap %d), want %v", tc.cells, kept, cap(sc.flat), tc.keepFlat)
		}
		if kept := sc.preds != nil; kept != tc.keepPreds {
			t.Errorf("%d cells: prediction scratch kept = %v (cap %d), want %v", tc.cells, kept, cap(sc.preds), tc.keepPreds)
		}
	}
	// A refused request trims too: its indices were decoded before it failed.
	body := appendPredictBody(nil, "ghost", 3, make([]int32, 3*(maxScratchBytes/12+1)))
	if status, _ := s.handle(opPredict, body, nil, &sc); status != stNotFound || sc.flat != nil {
		t.Errorf("unknown model: status %d, index scratch cap %d; want not-found and nothing kept", status, cap(sc.flat))
	}
}

// BenchmarkPredictBatch is the ledger row of the predict layer
// (BENCH_predict.json): Model.PredictBatch at batch 256 over uniform cells on
// the serve-batch shape — 64 MB of factors, every row a miss in L2 — and on a
// companion shape whose factors (1.9 MB) mostly stay cached. The /ref
// siblings loop sptensor.Kruskal.At, the formulation the kernel is held to
// bit for bit, over the same cells. scripts/bench_compare.sh gates each row
// on its sibling and on allocs/op == 0.
func BenchmarkPredictBatch(b *testing.B) {
	const batch, batches = 256, 64
	for _, shape := range []struct {
		name string
		dims []int
		rank int
	}{
		{"serve_batch", []int{200_000, 50_000, 100}, 32},
		{"companion", []int{12_000, 12_000, 5}, 10},
	} {
		m := randomModel(shape.dims, shape.rank, 11)
		order := len(shape.dims)
		flat := uniformCells(m, batch*batches, 12)
		step := batch * order
		perCell := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch*batches), "ns/cell")
		}
		b.Run(shape.name, func(b *testing.B) {
			out := make([]float64, 0, batch)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for off := 0; off < len(flat); off += step {
					var err error
					if out, err = m.PredictBatch(order, flat[off:off+step], out[:0]); err != nil {
						b.Fatal(err)
					}
				}
			}
			perCell(b)
		})
		b.Run(shape.name+"/ref", func(b *testing.B) {
			k := m.Kruskal()
			out := make([]float64, 0, batch)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for off := 0; off < len(flat); off += step {
					out = out[:0]
					for c := off; c < off+step; c += order {
						out = append(out, k.At(flat[c:c+order]))
					}
				}
			}
			perCell(b)
		})
	}
}
