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

func BenchmarkMTTKRPStage(b *testing.B) {
	benchStage(b, DistOptions{Options: Options{Rank: 8}})
}

func BenchmarkMTTKRPStageGrid(b *testing.B) {
	benchStage(b, DistOptions{Options: Options{Rank: 8}, GridPartition: true})
}

// layoutBenchTensor is the solve-scatter tensor of BENCHMARK.json (seed 1),
// generated once: the benchmark function runs several times per measurement.
var layoutBenchTensor = sync.OnceValue(func() *sptensor.Tensor {
	return synth.ScalabilityTensor([]int{15_000, 15_000, 15_000}, 500_000, 1)
})

// BenchmarkNewLayout times the whole layout build — shape choice, nested
// split, row lists and local ids — as set-up pays for it once per solve, and
// reports it per non-zero next to what the chosen blocking ships.
func BenchmarkNewLayout(b *testing.B) {
	t := layoutBenchTensor()
	opt := DistOptions{Options: Options{Rank: 10}.withDefaults(), Partitions: 4, GridPartition: true}
	var l *Layout
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l = NewLayout(t, opt)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(t.NNZ()), "ns/nnz")
	b.ReportMetric(float64(l.PartialRows())/float64(t.NNZ()), "rows/nnz")
}

// steadyWorkerIteration runs one worker-side MTTKRP iteration over every
// partition of l against a single shared arena: map kernel, slab emission,
// record encoding into buf, wire decode back out of buf, and the reduce
// accumulation + compaction. This is the allocation-visible span of a
// steady-state iteration; everything outside it — engine task dispatch,
// driver-side H_n assembly — allocates a handful of O(P+N) small objects per
// iteration by design and is excluded from the zero-alloc contract.
func steadyWorkerIteration(a *rdd.Arena, l *Layout, factors []*mat.Dense, rank int, wire rdd.WireFormat, buf []byte) ([]byte, float64) {
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
				rec := PackedRows{Mode: int16(n), Wire: wire, Rows: rows[lo:hi], Vals: acc[n][lo*rank : hi*rank]}
				buf = rec.AppendRecord(buf)
			}
		}
	}
	// Reduce side over the encoded stream, as one reduce partition spanning
	// every mode's full row range.
	rs, _ := a.Stash(mttkrpReduceStash).(*mttkrpReduceScratch)
	if rs == nil {
		rs = &mttkrpReduceScratch{
			slabs:   make([][]float64, l.order),
			touched: make([][]bool, l.order),
		}
		a.SetStash(mttkrpReduceStash, rs)
	}
	slabs, touched := rs.slabs, rs.touched
	for n := range slabs {
		slabs[n] = a.Float64s(l.dims[n] * rank)
		touched[n] = a.Bools(l.dims[n])
	}
	data := buf
	var rec PackedRows
	for len(data) > 0 {
		var err error
		data, err = rec.DecodeRecordArena(a, data)
		if err != nil {
			panic(err)
		}
		rec.addInto(slabs[rec.Mode], touched[rec.Mode], 0, rank)
	}
	out := rs.out[:0]
	for n := 0; n < l.order; n++ {
		out = append(out, compactRows(a, n, 0, rank, slabs[n], touched[n]))
	}
	rs.out = out
	return buf, norm2
}

// BenchmarkMTTKRPSteadyStateFused measures the arena-backed worker path in
// its steady state (iteration ≥ 2): allocs/op must report 0 — the contract
// TestMTTKRPSteadyStateZeroAlloc pins.
func BenchmarkMTTKRPSteadyStateFused(b *testing.B) {
	d := synth.LinearFactorDataset([]int{200, 200, 200}, 4, 50_000, 1)
	opt := DistOptions{Options: Options{Rank: 8}, GridPartition: true}
	opt.Options = opt.Options.withDefaults()
	opt.Partitions = 4
	l := NewLayout(d.Tensor, opt)
	factors := initFactors(d.Tensor.Dims, opt.Rank, 2)
	var a rdd.Arena
	var buf []byte
	// Warm up until the arena slabs and encode buffer reach the cycle's
	// high-water capacity; geometric growth converges within a few cycles.
	for i := 0; i < 5; i++ {
		buf, _ = steadyWorkerIteration(&a, l, factors, opt.Rank, rdd.WireVarint, buf)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = steadyWorkerIteration(&a, l, factors, opt.Rank, rdd.WireVarint, buf)
	}
}

// BenchmarkSerialIteration times one Complete iteration — the whole-tensor
// kernel call, the Grams and the driver update — on the solve-fiber tensor at
// R = 8, amortised over the six iterations of one solve. It is the ledger's
// serial row: core.dist_over_serial divides by what this times (ROADMAP
// finding F3 was that nothing recorded it).
func BenchmarkSerialIteration(b *testing.B) {
	const iters = 6
	ts := benchmarkTensors()[1].tensor
	opt := Options{Rank: 8, MaxIter: iters, Tol: -1, Seed: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Complete(ts, nil, opt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/iters/1e6, "ms/iter")
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
// zero heap allocations under any wire format.
func TestMTTKRPSteadyStateZeroAlloc(t *testing.T) {
	d := synth.LinearFactorDataset([]int{60, 50, 40}, 3, 8_000, 5)
	for _, wire := range []rdd.WireFormat{rdd.WireVarint, rdd.WireF32} {
		opt := DistOptions{Options: Options{Rank: 6}, GridPartition: true}
		opt.Options = opt.Options.withDefaults()
		opt.Partitions = 4
		l := NewLayout(d.Tensor, opt)
		factors := initFactors(d.Tensor.Dims, opt.Rank, 2)
		var a rdd.Arena
		var buf []byte
		for i := 0; i < 5; i++ {
			buf, _ = steadyWorkerIteration(&a, l, factors, opt.Rank, wire, buf)
		}
		allocs := testing.AllocsPerRun(10, func() {
			buf, _ = steadyWorkerIteration(&a, l, factors, opt.Rank, wire, buf)
		})
		if allocs != 0 {
			t.Errorf("wire=%v: steady-state iteration allocates %.1f objects/op, want 0", wire, allocs)
		}
		// The scratch outlives the task in the arena stash: it must not keep
		// the iterate it just read reachable.
		rows := a.Stash(mttkrpMapStash).(*mttkrpMapScratch).fused.rows
		if i := slices.IndexFunc(rows, func(row []float64) bool { return row != nil }); i >= 0 {
			t.Errorf("wire=%v: the stashed kernel scratch still holds a mode-%d factor row after the task", wire, i)
		}
	}
}
