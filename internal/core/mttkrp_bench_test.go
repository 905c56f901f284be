package core

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"distenc/internal/mat"
	"distenc/internal/rdd"
	"distenc/internal/sptensor"
	"distenc/internal/synth"
)

// benchStage builds a cached block layout once and times MTTKRPStage alone —
// the per-iteration distributed hot path — isolated from the driver algebra
// (Gram products, spectral updates, Eq. 16 solves) that CompleteDistributed
// adds around it.
func benchStage(b *testing.B, opt DistOptions) {
	d := synth.LinearFactorDataset([]int{200, 200, 200}, 4, 50_000, 1)
	opt.Options = opt.Options.withDefaults()
	c := rdd.MustNewCluster(rdd.Config{Machines: 4})
	defer c.Close()
	if opt.Partitions <= 0 {
		opt.Partitions = c.Machines()
	}
	layout := NewLayout(d.Tensor, opt)
	blocks := layout.BlocksRDD(c)
	blocks.Cache()
	if err := blocks.Materialize(); err != nil {
		b.Fatal(err)
	}
	factors := initFactors(d.Tensor.Dims, opt.Rank, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := MTTKRPStage(c, blocks, layout, factors, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMTTKRPStage times the stage on the mode-0 blocking. Its /ref
// sibling runs every loop on its Go body (useGoBodies), as
// BenchmarkMTTKRPStageGrid's does: the ledger gates the ratio of the two.
func BenchmarkMTTKRPStage(b *testing.B) {
	opt := DistOptions{Options: Options{Rank: 8}}
	b.Run("linear", func(b *testing.B) { benchStage(b, opt) })
	b.Run("linear/ref", func(b *testing.B) {
		useGoBodies(b, true)
		benchStage(b, opt)
	})
}

// BenchmarkMTTKRPStageGrid times the stage on the grid blocking. Its /ref
// sibling runs the same stage with every loop on its Go body (the portable
// kernel; useGoBodies), a moment later in the same process: the ledger gates
// the ratio of the two, which the host's speed does not move.
func BenchmarkMTTKRPStageGrid(b *testing.B) {
	opt := DistOptions{Options: Options{Rank: 8}, GridPartition: true}
	b.Run("linear", func(b *testing.B) { benchStage(b, opt) })
	b.Run("linear/ref", func(b *testing.B) {
		useGoBodies(b, true)
		benchStage(b, opt)
	})
}

// layoutBenchTensors are the solve-scatter and solve-fiber tensors of
// BENCHMARK.json (seed 1), generated once: the benchmark function runs several
// times per measurement.
var layoutBenchTensors = sync.OnceValue(func() map[string]*sptensor.Tensor {
	return map[string]*sptensor.Tensor{
		"solve_scatter": synth.ScalabilityTensor([]int{15_000, 15_000, 15_000}, 500_000, 1),
		"solve_fiber":   synth.FacebookSim(synth.LinkPredConfig{Users: 12_000, Days: 5, Rank: 5, NNZ: 600_000, Noise: 0.05, Seed: 1}).Tensor,
	}
})

// BenchmarkNewLayout times the whole layout build — shape choice, nested
// split, row lists and local ids — as set-up pays for it once per solve, on
// the solve-scatter and solve-fiber tensors, and reports it per non-zero next
// to what the chosen blocking ships. Each row's /ref sibling runs
// refNewLayout, the build before its passes were fused, on the same tensor a
// moment later: the ledger gates the ratio of the two.
func BenchmarkNewLayout(b *testing.B) {
	for _, name := range []string{"solve_scatter", "solve_fiber"} {
		t := layoutBenchTensors()[name]
		for _, row := range []struct {
			name  string
			build func(*sptensor.Tensor, DistOptions) *Layout
		}{{name, NewLayout}, {name + "/ref", refNewLayout}} {
			b.Run(row.name, func(b *testing.B) {
				opt := DistOptions{Options: Options{Rank: 10}.withDefaults(), Partitions: 4, GridPartition: true}
				var l *Layout
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					l = row.build(t, opt)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(t.NNZ()), "ns/nnz")
				b.ReportMetric(float64(l.PartialRows())/float64(t.NNZ()), "rows/nnz")
			})
		}
	}
}

// steadyWorkerIteration runs one worker-side MTTKRP iteration over every
// partition of l against a single shared arena: map kernel, slab emission,
// record encoding into buf, wire decode back out of buf, and the reduce
// accumulation into dense slabs. This is the allocation-visible span of a
// steady-state iteration; everything outside it — engine task dispatch,
// the driver's run lists — allocates a handful of O(P+N) small objects per
// iteration by design and is excluded from the zero-alloc contract.
func steadyWorkerIteration(a *rdd.Arena, l *Layout, factors []*mat.Dense, rank int, buf []byte) ([]byte, float64) {
	a.Reset()
	ms, _ := a.Stash(mttkrpMapStash).(*mttkrpMapScratch)
	if ms == nil {
		ms = &mttkrpMapScratch{
			acc:   make([][]float64, l.order),
			out:   make([][]PackedRows, l.parts),
			fused: newFusedScratch(l.order, rank),
		}
		a.SetStash(mttkrpMapStash, ms)
	}
	buf = buf[:0]
	var norm2 float64
	for p := 0; p < l.parts; p++ {
		acc := ms.acc
		l.mapSlabs(a, p, rank, acc)
		off := 0
		for _, blk := range l.blockParts[p] {
			norm2 += fusedBlockMTTKRP(blk, l.locIdx[p][off:off+len(blk.Idx)], factors, rank, acc, ms.fused)
			off += len(blk.Idx)
		}
		for n := 0; n < l.order; n++ {
			rows := l.neededRows[p][n]
			runs := l.rowRuns[p][n]
			for rp := 0; rp < len(runs)-1; rp++ {
				lo, hi := runs[rp], runs[rp+1]
				if lo == hi {
					continue
				}
				rec := PackedRows{Mode: int16(n), Rows: rows[lo:hi], Vals: acc[n][lo*rank : hi*rank]}
				buf = rec.AppendRecord(buf)
			}
		}
	}
	// Reduce side over the encoded stream, as one reduce partition spanning
	// every mode's full row range.
	rs, _ := a.Stash(mttkrpReduceStash).(*mttkrpReduceScratch)
	if rs == nil {
		rs = &mttkrpReduceScratch{out: make([]HRows, l.order)}
		a.SetStash(mttkrpReduceStash, rs)
	}
	for n := range rs.out {
		rs.out[n] = HRows{Mode: int16(n), Vals: a.Float64s(l.dims[n] * rank)}
	}
	data := buf
	var rec PackedRows
	for len(data) > 0 {
		var err error
		data, err = rec.DecodeRecordArena(a, data)
		if err != nil {
			panic(err)
		}
		rec.addInto(rs.out[rec.Mode].Vals, 0, rank)
	}
	return buf, norm2
}

// BenchmarkMTTKRPSteadyStateFused measures the arena-backed worker path in
// its steady state (iteration ≥ 2): allocs/op must report 0 — the contract
// TestMTTKRPSteadyStateZeroAlloc pins. Its /ref sibling runs the portable
// kernel (useGoBodies), so the ledger can gate the ratio of the two.
func BenchmarkMTTKRPSteadyStateFused(b *testing.B) {
	d := synth.LinearFactorDataset([]int{200, 200, 200}, 4, 50_000, 1)
	opt := DistOptions{Options: Options{Rank: 8}, GridPartition: true}
	opt.Options = opt.Options.withDefaults()
	opt.Partitions = 4
	l := NewLayout(d.Tensor, opt)
	factors := initFactors(d.Tensor.Dims, opt.Rank, 2)
	run := func(b *testing.B) {
		var a rdd.Arena
		var buf []byte
		// Warm up until the arena slabs and encode buffer reach the
		// cycle's high-water capacity.
		for i := 0; i < 5; i++ {
			buf, _ = steadyWorkerIteration(&a, l, factors, opt.Rank, buf)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf, _ = steadyWorkerIteration(&a, l, factors, opt.Rank, buf)
		}
	}
	b.Run("grid", run)
	b.Run("grid/ref", func(b *testing.B) {
		useGoBodies(b, true)
		run(b)
	})
}

// BenchmarkSerialIteration times one Complete iteration — the whole-tensor
// kernel call, the Grams and the driver update — on the solve-fiber tensor at
// R = 8, amortised over the six iterations of one solve. It is the ledger's
// serial row: core.dist_over_serial divides by what this times (ROADMAP
// finding F3 was that nothing recorded it). Its /ref sibling runs every
// loop on its Go body (useGoBodies) — the kernel, the driver pass's row
// algebra and the initial scale's predictions — so the ledger's share is the
// whole iteration's, not the kernel's alone.
func BenchmarkSerialIteration(b *testing.B) {
	const iters = 6
	ts := benchmarkTensors()[1].tensor
	opt := Options{Rank: 8, MaxIter: iters, Tol: -1, Seed: 2}
	run := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Complete(ts, nil, opt); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/iters/1e6, "ms/iter")
	}
	b.Run("fiber", run)
	b.Run("fiber/ref", func(b *testing.B) {
		useGoBodies(b, true)
		run(b)
	})
}

// BenchmarkFusedKernel times the map-side kernel alone at the scale the gate
// runs at: the tensors, ranks and 4-block grid layouts of BENCHMARK.json's
// three in-process solve workloads (seed 1; tenth-size under -short). One op
// is the kernel over all P blocks into slabs drawn once. Each /ref sibling
// runs the plain formulation the kernel is held to bit for bit
// (refBlockMTTKRP) over the same blocks: the in-repo before/after. It is the
// last benchmark of the file so that its tensors, hundreds of times the
// steady-state benchmarks' working set, enter the heap after those have run.
func BenchmarkFusedKernel(b *testing.B) {
	for _, w := range benchmarkTensors()[:3] {
		l := testLayout(w.tensor, w.rank, w.parts, true, false)
		factors := initFactors(w.tensor.Dims, w.rank, 2)
		acc := make([][][]float64, l.parts)
		for p := range acc {
			acc[p] = make([][]float64, l.order)
			for n, rows := range l.neededRows[p] {
				acc[p][n] = make([]float64, len(rows)*w.rank)
			}
		}
		name := strings.TrimPrefix(w.name, "solve-")
		for _, k := range []struct {
			name    string
			kernel  blockKernel
			scratch *fusedScratch
		}{
			{name, fusedBlockMTTKRP, newFusedScratch(l.order, w.rank)},
			{name + "/ref", refBlockMTTKRP, newFusedScratch(l.order+1, w.rank)},
		} {
			b.Run(k.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for p := 0; p < l.parts; p++ {
						k.kernel(l.blockParts[p][0], l.locIdx[p], factors, w.rank, acc[p], k.scratch)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(w.tensor.NNZ()), "ns/nnz")
			})
		}
	}
}

// TestMTTKRPSteadyStateZeroAlloc proves the zero-alloc steady state: after
// warm-up iterations size the arena, further worker-side iterations perform
// zero heap allocations.
func TestMTTKRPSteadyStateZeroAlloc(t *testing.T) {
	d := synth.LinearFactorDataset([]int{60, 50, 40}, 3, 8_000, 5)
	opt := DistOptions{Options: Options{Rank: 6}, GridPartition: true}
	opt.Options = opt.Options.withDefaults()
	opt.Partitions = 4
	l := NewLayout(d.Tensor, opt)
	factors := initFactors(d.Tensor.Dims, opt.Rank, 2)
	var a rdd.Arena
	var buf []byte
	for i := 0; i < 5; i++ {
		buf, _ = steadyWorkerIteration(&a, l, factors, opt.Rank, buf)
	}
	allocs := testing.AllocsPerRun(10, func() {
		buf, _ = steadyWorkerIteration(&a, l, factors, opt.Rank, buf)
	})
	if allocs != 0 {
		t.Errorf("steady-state iteration allocates %.1f objects/op, want 0", allocs)
	}
	// The scratch outlives the task in the arena stash: it must not keep
	// the iterate it just read reachable.
	rows := a.Stash(mttkrpMapStash).(*mttkrpMapScratch).fused.rows
	if i := slices.IndexFunc(rows, func(row []float64) bool { return row != nil }); i >= 0 {
		t.Errorf("the stashed kernel scratch still holds a mode-%d factor row after the task", i)
	}
}
