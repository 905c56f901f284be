package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"distenc/internal/mat"
	"distenc/internal/rdd"
	"distenc/internal/sptensor"
	"distenc/internal/synth"
)

// partialRowStats measures, per mode, what the MTTKRP shuffle has to combine
// under layout l: emitted[n] = Σₚ|neededRows[p][n]| is the number of partial
// H_n rows the P map tasks send in one iteration, distinct[n] the number of
// H_n rows that exist to receive them. emitted/distinct is the fan-in per
// output row: 1 when every row is produced by a single block (nothing left
// for a combiner to merge), P when every block touches every row — the
// M·I·R-per-mode worst case Lemma 3 charges.
func partialRowStats(l *Layout) (emitted, distinct []int) {
	emitted, distinct = make([]int, l.order), make([]int, l.order)
	for n := 0; n < l.order; n++ {
		seen := make([]bool, l.dims[n])
		for p := 0; p < l.parts; p++ {
			emitted[n] += len(l.neededRows[p][n])
			for _, row := range l.neededRows[p][n] {
				if !seen[row] {
					seen[row] = true
					distinct[n]++
				}
			}
		}
	}
	return emitted, distinct
}

func testLayout(tn *sptensor.Tensor, rank, parts int, grid, uniform bool) *Layout {
	opt := DistOptions{Options: Options{Rank: rank}, Partitions: parts, GridPartition: grid, UniformPartition: uniform}
	opt.Options = opt.Options.withDefaults()
	return NewLayout(tn, opt)
}

// benchmarkTensor is one of the five tensors BENCHMARK.json's workloads solve
// (seed 1), or a tenth-size stand-in of the same kind under -short.
type benchmarkTensor struct {
	name        string
	tensor      *sptensor.Tensor
	rank, parts int
}

// benchmarkTensors generates them once for the tests that share them.
var benchmarkTensors = sync.OnceValue(func() []benchmarkTensor {
	scale := 1
	if testing.Short() {
		scale = 10
	}
	facebook := func(users, nnz int) *sptensor.Tensor {
		return synth.FacebookSim(synth.LinkPredConfig{Users: users / scale, Days: 5, Rank: 5, NNZ: nnz / scale, Noise: 0.05, Seed: 1}).Tensor
	}
	scatter := func(dim, nnz int) *sptensor.Tensor {
		return synth.ScalabilityTensor([]int{dim / scale, dim / scale, dim / scale}, nnz/scale, 1)
	}
	return []benchmarkTensor{
		{"solve-scatter", scatter(15_000, 500_000), 10, 4},
		{"solve-fiber", facebook(12_000, 600_000), 10, 4},
		{"solve-highdim", facebook(25_000, 150_000), 16, 4},
		{"solve-tcp-small", scatter(2000, 20_000), 10, 8},
		{"serve-* canary", facebook(4000, 100_000), 10, 4},
	}
})

// shapes lists every ordered factorization of p with one factor per mode, none
// larger than its mode's length.
func shapes(dims []int, p int) [][]int {
	if len(dims) == 0 {
		if p == 1 {
			return [][]int{nil}
		}
		return nil
	}
	var out [][]int
	for d := 1; d <= min(p, dims[0]); d++ {
		if p%d != 0 {
			continue
		}
		for _, rest := range shapes(dims[1:], p/d) {
			out = append(out, append([]int{d}, rest...))
		}
	}
	return out
}

// exactPartialRows builds the nested split of the given shape and counts the
// partial rows it emits per iteration — what chooseShape bounds without
// building anything.
func exactPartialRows(tn *sptensor.Tensor, shape []int) int64 {
	counts := make([][]int64, tn.Order())
	local := make([][]int32, tn.Order())
	for n, d := range tn.Dims {
		counts[n] = tn.ModeCounts(n)
		local[n] = make([]int32, d)
	}
	scratch := make([]int32, slices.Max(tn.Dims))
	var total int64
	for _, blk := range splitNested(tn, counts, shape, false) {
		rows, _ := blockRows(blk, local, scratch)
		for _, r := range rows {
			total += int64(len(r))
		}
	}
	return total
}

// TestPartialRowsPerOutputRow pins the bounds of the fan-in measure and, run
// with -v, prints it with the chosen shape, its bound, the exact count and
// the block balance for the five benchmark tensors (full size unless -short)
// — the table in EXPERIMENTS.md ("Shuffle fan-in") comes from this test.
func TestPartialRowsPerOutputRow(t *testing.T) {
	small := synth.LinearFactorDataset([]int{60, 50, 40}, 3, 8_000, 5).Tensor
	for _, grid := range []bool{false, true} {
		l := testLayout(small, 4, 4, grid, false)
		emitted, distinct := partialRowStats(l)
		for n := range emitted {
			if distinct[n] == 0 || emitted[n] < distinct[n] || emitted[n] > l.parts*distinct[n] {
				t.Errorf("grid=%v mode %d: %d partial rows for %d output rows, outside [1, P=%d] per row",
					grid, n, emitted[n], distinct[n], l.parts)
			}
		}
		// Blocks split on mode 0 alone own their mode-0 rows outright.
		if !grid && emitted[0] != distinct[0] {
			t.Errorf("mode-0 blocking: %d partial rows for %d mode-0 output rows, want one each", emitted[0], distinct[0])
		}
	}

	t.Logf("%-16s %-7s %-4s %10s %10s %8s %12s", "workload", "shape", "mode", "emitted", "distinct", "fan-in", "of Lemma 3")
	for _, w := range benchmarkTensors() {
		for _, grid := range []bool{true, false} { // true is what the benchmark runs
			l := testLayout(w.tensor, w.rank, w.parts, grid, false)
			b := l.Blocking()
			emitted, distinct := partialRowStats(l)
			var sum int64
			for n := range emitted {
				sum += int64(emitted[n])
				t.Logf("%-16s %-7s %-4d %10d %10d %8.2f %11.0f%%", w.name, shapeString(b.Shape), n, emitted[n], distinct[n],
					float64(emitted[n])/float64(distinct[n]), 100*float64(emitted[n])/float64(l.parts*l.dims[n]))
			}
			t.Logf("%-16s %s", w.name, b)
			if sum != l.PartialRows() || sum > b.Bound {
				t.Errorf("%s grid=%v: counted %d partial rows, layout reports %d under a bound of %d", w.name, grid, sum, l.PartialRows(), b.Bound)
			}
		}
	}
}

// entryKey packs a multi-index into a map key.
func entryKey(idx []int32) string {
	key := make([]byte, 0, 4*len(idx))
	for _, i := range idx {
		key = binary.LittleEndian.AppendUint32(key, uint32(i))
	}
	return string(key)
}

// TestLayoutInvariants checks, over block counts with few and many
// factorizations, orders 3 and 4, a mode shorter than P and both
// partitioners, what every consumer of a Layout relies on: each entry lands
// in exactly one block, the blocks number ΠPₙ = P, a mode-n row is touched
// by at most P/Pₙ of them, the row lists and local ids agree with the
// entries, and a second build gives the same layout.
func TestLayoutInvariants(t *testing.T) {
	tensors := map[string]*sptensor.Tensor{
		"order3":       synth.LinearFactorDataset([]int{40, 30, 25}, 2, 4000, 3).Tensor,
		"order4":       synth.LinearFactorDataset([]int{14, 12, 10, 9}, 2, 3000, 4).Tensor,
		"order3/short": synth.LinearFactorDataset([]int{40, 30, 5}, 2, 3000, 5).Tensor,
	}
	for name, tn := range tensors {
		order := tn.Order()
		for _, parts := range []int{1, 2, 3, 4, 6, 7, 8, 12} {
			for _, uniform := range []bool{false, true} {
				l := testLayout(tn, 3, parts, true, uniform)
				shape := l.Shape()
				prod := 1
				for n, pn := range shape {
					prod *= pn
					if pn > tn.Dims[n] {
						t.Errorf("%s P=%d: shape %v cuts mode %d of length %d into %d", name, parts, shape, n, tn.Dims[n], pn)
					}
				}
				if prod != parts || len(l.blockParts) != parts {
					t.Fatalf("%s P=%d uniform=%v: shape %v, %d blocks", name, parts, uniform, shape, len(l.blockParts))
				}

				seen := make(map[string]int, tn.NNZ())
				touches := make([][]int, order) // blocks touching each row
				for n := range touches {
					touches[n] = make([]int, tn.Dims[n])
				}
				var emitted int64
				for p, blks := range l.blockParts {
					blk := blks[0]
					for e := 0; e < blk.NNZ(); e++ {
						idx := blk.EntryIndex(e)
						seen[entryKey(idx)]++
						for n, i := range idx {
							if got := l.neededRows[p][n][l.locIdx[p][e*order+n]]; got != i {
								t.Fatalf("%s P=%d block %d entry %d mode %d: local id points at row %d, entry has %d", name, parts, p, e, n, got, i)
							}
						}
						if e > 0 && slices.Compare(blk.EntryIndex(e-1), idx) > 0 {
							t.Fatalf("%s P=%d block %d: entries %d, %d out of mode-major order", name, parts, p, e-1, e)
						}
					}
					for n, rows := range l.neededRows[p] {
						emitted += int64(len(rows))
						for k, row := range rows {
							touches[n][row]++
							if k > 0 && rows[k-1] >= row {
								t.Fatalf("%s P=%d block %d mode %d: row list not ascending at %d", name, parts, p, n, k)
							}
						}
					}
				}
				if len(seen) != tn.NNZ() {
					t.Fatalf("%s P=%d uniform=%v: blocks hold %d distinct entries, tensor %d", name, parts, uniform, len(seen), tn.NNZ())
				}
				for e := 0; e < tn.NNZ(); e++ {
					if c := seen[entryKey(tn.Index(e))]; c != 1 {
						t.Fatalf("%s P=%d uniform=%v: entry %v is in %d blocks, want exactly one", name, parts, uniform, tn.Index(e), c)
					}
				}
				for n := range touches {
					for row, c := range touches[n] {
						if c > parts/shape[n] {
							t.Errorf("%s P=%d shape %v: mode-%d row %d is touched by %d blocks, more than P/Pₙ = %d",
								name, parts, shape, n, row, c, parts/shape[n])
						}
					}
				}
				if b := l.Blocking(); emitted != b.PartialRows || emitted > b.Bound {
					t.Errorf("%s P=%d: %d partial rows, layout reports %d under a bound of %d", name, parts, emitted, b.PartialRows, b.Bound)
				}

				again := testLayout(tn, 3, parts, true, uniform)
				if !slices.Equal(again.Shape(), shape) {
					t.Fatalf("%s P=%d: second build chose %v, first %v", name, parts, again.Shape(), shape)
				}
				for p := range l.blockParts {
					a, b := l.blockParts[p][0], again.blockParts[p][0]
					if !slices.Equal(a.Idx, b.Idx) || !slices.Equal(l.locIdx[p], again.locIdx[p]) {
						t.Fatalf("%s P=%d: block %d differs between two builds", name, parts, p)
					}
				}
			}
		}
	}
}

// TestBlockingBalanced: the nested split's largest block stays within 5 % of
// the mean on the benchmark tensors (the dealt grid's was 1.41× on the three
// with a length-5 mode: 27 cells over 4 partitions).
func TestBlockingBalanced(t *testing.T) {
	for _, w := range benchmarkTensors() {
		if b := testLayout(w.tensor, w.rank, w.parts, true, false).Blocking(); b.Imbalance > 1.05 {
			t.Errorf("%s: %s", w.name, b)
		}
	}
}

// TestBlockingShapeNearBest builds every shape and counts what it really
// emits: the shape chosen from the histograms alone must be within 5 % of the
// best one.
func TestBlockingShapeNearBest(t *testing.T) {
	ws := append(slices.Clone(benchmarkTensors()), benchmarkTensor{"order4", synth.LinearFactorDataset([]int{30, 25, 20, 6}, 2, 6000, 8).Tensor, 3, 12})
	for _, w := range ws {
		chosen := testLayout(w.tensor, w.rank, w.parts, true, false).Blocking()
		best, bestShape := int64(math.MaxInt64), []int(nil)
		for _, shape := range shapes(w.tensor.Dims, w.parts) {
			if rows := exactPartialRows(w.tensor, shape); rows < best {
				best, bestShape = rows, shape
			}
		}
		t.Logf("%-16s chose %v: %d partial rows; best %v: %d (%+.1f%%)", w.name, chosen.Shape, chosen.PartialRows,
			bestShape, best, 100*(float64(chosen.PartialRows)/float64(best)-1))
		if float64(chosen.PartialRows) > 1.05*float64(best) {
			t.Errorf("%s: chosen shape %v emits %d partial rows, shape %v only %d", w.name, chosen.Shape, chosen.PartialRows, bestShape, best)
		}
	}
}

// TestBlockingPrimeP: a prime P has only single-mode shapes, and the one on
// the mode where cutting saves the most rows wins.
func TestBlockingPrimeP(t *testing.T) {
	// Mode 1 has 3000 rows of about ten non-zeros: uncut, each costs P partial
	// rows. The short modes have 50 rows to save on.
	tn := synth.ScalabilityTensor([]int{50, 3000, 50}, 30_000, 3)
	b := testLayout(tn, 3, 7, true, false).Blocking()
	if want := []int{1, 7, 1}; !slices.Equal(b.Shape, want) {
		t.Errorf("shape %v, want %v", b.Shape, want)
	}
	var want int64
	for n, fan := range []int64{7, 1, 7} {
		for _, c := range tn.ModeCounts(n) {
			want += min(c, fan)
		}
	}
	if b.Bound != want {
		t.Errorf("bound %d, want Σₙ Σᵢ min(θₙ[i], P/Pₙ) = %d", b.Bound, want)
	}
	// A tie goes to the earliest mode, which is also GridPartition: false.
	cube := synth.ScalabilityTensor([]int{50, 50, 50}, 20_000, 3)
	if got, want := testLayout(cube, 3, 7, true, false).Shape(), testLayout(cube, 3, 7, false, false).Shape(); !slices.Equal(got, want) {
		t.Errorf("dense cube: grid chose %v, mode-0 blocking is %v", got, want)
	}
}

// TestBlockingMorePartsThanRows: when P exceeds every mode's length no shape
// fits; the ranges clamp, surplus blocks stay empty and the solve is the one
// any other blocking computes.
func TestBlockingMorePartsThanRows(t *testing.T) {
	d := synth.LinearFactorDataset([]int{5, 6, 7}, 2, 150, 41)
	opts := Options{Rank: 2, MaxIter: 4, Tol: -1, Seed: 42}
	solve := func(parts int, grid bool) *Result {
		c := rdd.MustNewCluster(rdd.Config{Machines: 2})
		defer c.Close()
		res, err := CompleteDistributed(c, d.Tensor, d.Sims, DistOptions{Options: opts, Partitions: parts, GridPartition: grid})
		if err != nil {
			t.Fatalf("P=%d grid=%v: %v", parts, grid, err)
		}
		return res
	}
	base := solve(2, false)
	for _, parts := range []int{11, 64} {
		res := solve(parts, true)
		for n := range base.Model.Factors {
			if diff := mat.MaxAbsDiff(base.Model.Factors[n], res.Model.Factors[n]); diff > 1e-9 {
				t.Errorf("P=%d shape %v: mode-%d factors differ by %v", parts, res.Blocking.Shape, n, diff)
			}
		}
	}
}

// TestModeZeroBlockingFactorsPinned holds the solve to its bits (FNV-64a over
// the factors' Float64bits). GridPartition: false is the shape (P,1,…,1) of
// the nested split and must keep computing what the mode-0 fork it replaced
// computed, and the grid rows what the fused kernel computed before it went
// to one loop per mode. The datasets carry similarities, so all eight were
// re-taken once, when the B-update became the damped-Jacobi step on the
// sparse Laplacian; nothing else has moved them.
func TestModeZeroBlockingFactorsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hashes recorded on amd64; other targets may fuse multiply-adds")
	}
	for _, tc := range []struct {
		name          string
		dims          []int
		nnz           int
		rank, parts   int
		grid, uniform bool
		want          uint64
	}{
		{"order3/P=3", []int{30, 25, 20}, 3000, 3, 3, false, false, 0x7101923dc41e592d},
		{"order4/P=4", []int{12, 10, 9, 5}, 2500, 3, 4, false, false, 0x1c7117fa36a5c872},
		{"order3/P=8/uniform", []int{30, 25, 5}, 2000, 3, 8, false, true, 0xbd18629413152322},
		{"order3/P=7>I0", []int{5, 30, 25}, 2000, 3, 7, false, false, 0x47f8e78d1a3fc3b3},
		{"grid/order3/P=4/R=3", []int{30, 25, 20}, 3000, 3, 4, true, false, 0xf41d75ec51ea97b0},
		{"grid/order3/P=8/R=10", []int{30, 25, 20}, 3000, 10, 8, true, false, 0x17aba2cbf228268e},
		{"grid/order4/P=4/R=10", []int{12, 10, 9, 5}, 2500, 10, 4, true, false, 0x3830875d4021e888},
		{"grid/order4/P=8/R=3", []int{12, 10, 9, 5}, 2500, 3, 8, true, false, 0x14241c6505fc1273},
	} {
		d := synth.LinearFactorDataset(tc.dims, 2, tc.nnz, 91)
		c := rdd.MustNewCluster(rdd.Config{Machines: 2})
		res, err := CompleteDistributed(c, d.Tensor, d.Sims, DistOptions{
			Options:    Options{Rank: tc.rank, MaxIter: 4, Tol: -1, Seed: 92},
			Partitions: tc.parts, GridPartition: tc.grid, UniformPartition: tc.uniform,
		})
		c.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		h := fnv.New64a()
		var b [8]byte
		for _, f := range res.Model.Factors {
			for _, v := range f.Data() {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
		if got := h.Sum64(); got != tc.want {
			t.Errorf("%s: shape %v, factor hash %#016x, want %#016x", tc.name, res.Blocking.Shape, got, tc.want)
		}
	}
}
