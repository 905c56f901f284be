package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"distenc/internal/graph"
	"distenc/internal/mat"
	"distenc/internal/metrics"
	"distenc/internal/part"
	"distenc/internal/rdd"
	"distenc/internal/sptensor"
)

// DistOptions configures the distributed solver.
type DistOptions struct {
	Options
	// Partitions is the tensor block count P (default: machine count).
	Partitions int
	// UniformPartition disables the Algorithm 2 greedy partitioner and
	// splits each mode into equal-width index ranges (the load-balancing
	// ablation).
	UniformPartition bool
	// DistributeGram computes the per-mode self-products A(n)ᵀA(n) with a
	// distributed stage per Eq. (13) instead of on the driver. The math is
	// identical; the driver path avoids per-iteration stage overhead at the
	// small scales of this reproduction.
	DistributeGram bool
	// GridPartition blocks the tensor on every mode (the paper's P×Q×K
	// compartmentalization, §III-C) instead of only on mode 0. Each engine
	// partition then covers a bounded index range per mode, which shrinks
	// the factor rows shipped per block and the duplicated map-side
	// combining — the property behind the paper's Figure 4 linearity. The
	// solver's mathematics is independent of the blocking.
	GridPartition bool
	// Kernel selects the map-side MTTKRP kernel: KernelAuto (default) picks
	// fused or SpMV-chain per partition from the layout's static cost model;
	// KernelFused and KernelSpMV force one kernel everywhere. The kernels
	// agree to float rounding (identical residual norms, factor entries
	// within summation-reorder error), and the choice is a pure function of
	// the layout, so it never perturbs recovery behavior.
	Kernel KernelMode
	// Wire selects the PackedRows shuffle wire format: unset resolves to
	// rdd.WireVarint (lossless delta-varint row compression); rdd.WireF32
	// additionally narrows values to float32 on the wire (decoded back to
	// float64, so accumulation stays in double precision); rdd.WireRaw is
	// the uncompressed v1 layout.
	Wire rdd.WireFormat
}

// RowKey addresses one factor-matrix row; Mode -1 carries side-channel
// scalars. DisTenC's own MTTKRP shuffle now moves packed slab records
// (PackedRows) instead of per-row KVs, but baselines that exchange individual
// factor rows (FlexiFact's SGD deltas) still key on it.
type RowKey struct {
	Mode int16
	Row  int32
}

// TensorBlock is one greedy-partitioned block of the observed tensor, the
// unit of work distributed across machines (§III-C).
type TensorBlock struct {
	Order int
	Idx   []int32
	Val   []float64
}

// SizeBytes implements rdd.Sizer so cached blocks charge honest memory.
func (b *TensorBlock) SizeBytes() int64 {
	return int64(len(b.Idx))*4 + int64(len(b.Val))*8 + 16
}

// NNZ returns the number of stored entries in the block.
func (b *TensorBlock) NNZ() int { return len(b.Val) }

// EntryIndex returns a view of entry e's multi-index.
func (b *TensorBlock) EntryIndex(e int) []int32 { return b.Idx[e*b.Order : (e+1)*b.Order] }

// CompleteDistributed runs DisTenC (Algorithm 3) on the engine:
//
//  1. Greedy block partitioning of the observed tensor (Algorithm 2) with
//     the blocks cached as an RDD (charging machine memory).
//  2. Per iteration, one distributed stage ships each block exactly the
//     factor rows its non-zeros touch (counted as shuffle traffic — the
//     O(T·N·M·I·R) term of Lemma 3), computes the block's residual entries
//     E = Ω∗(T−[[A]]) and its partial row-wise MTTKRP contributions
//     (Eq. 11), and reduces them by row key across machines.
//  3. The driver finishes the small dense algebra: spectral B updates
//     (Eq. 7), Hadamard-of-Grams F_n (Eq. 12), the Eq. (16) factor update,
//     and the Y/η bookkeeping — identical math to the serial reference.
func CompleteDistributed(c *rdd.Cluster, t *sptensor.Tensor, sims []*graph.Similarity, opt DistOptions) (*Result, error) {
	return completeDistributed(c, t, sims, opt, nil)
}

// ResumeDistributed continues an interrupted CompleteDistributed run from the
// latest checkpoint in opt.CheckpointDir, exactly as Resume does for the
// serial solver: the restored iteration state is bit-identical, so the
// resumed run's factors match an uninterrupted run's bit-for-bit.
func ResumeDistributed(c *rdd.Cluster, t *sptensor.Tensor, sims []*graph.Similarity, opt DistOptions) (*Result, error) {
	opt.Options = opt.Options.withDefaults()
	ck, err := loadCheckpoint(opt.CheckpointDir, t, opt.Options)
	if err != nil {
		return nil, err
	}
	return completeDistributed(c, t, sims, opt, ck)
}

// completeDistributed is the shared distributed loop; a non-nil ck replaces
// the fresh initialization with checkpointed state and starts at its
// iteration.
func completeDistributed(c *rdd.Cluster, t *sptensor.Tensor, sims []*graph.Similarity, opt DistOptions, ck *checkpointState) (*Result, error) {
	opt.Options = opt.Options.withDefaults()
	if opt.Partitions <= 0 {
		opt.Partitions = c.Machines()
	}
	if err := validate(t, sims); err != nil {
		return nil, err
	}
	if err := validateOptions(t, opt.Options); err != nil {
		return nil, err
	}
	sp, err := spectra(sims, opt.TruncK, opt.Seed)
	if err != nil {
		return nil, err
	}

	layout := NewLayout(t, opt)
	blocksRDD := layout.BlocksRDD(c)
	blocksRDD.Cache()
	if err := blocksRDD.Materialize(); err != nil {
		return nil, fmt.Errorf("core: caching tensor blocks: %w", err)
	}
	defer blocksRDD.Unpersist()

	st := newSolverState(t, sp, opt.Options)
	st.resid = nil // the stage computes residuals; never materialize driver-side
	if ck != nil {
		st.restore(ck, true)
	}
	start := time.Now()
	defer c.SetStageTag("")

	for ; st.iter < opt.MaxIter; st.iter++ {
		// Tag this iteration's stages so the stage log, task trace and
		// Chrome-trace export attribute every span to its iteration.
		c.SetStageTag(fmt.Sprintf("iter=%d", st.iter))
		mark := c.StageLogLen()
		iterStart := time.Now()
		hs, residNorm2, err := MTTKRPStage(c, blocksRDD, layout, st.factors, opt)
		if err != nil {
			return nil, err
		}
		gramStart := time.Now()
		grams := make([]*mat.Dense, t.Order())
		for n, f := range st.factors {
			if opt.DistributeGram {
				g, err := distributedGram(c, f, layout.modeBounds[n])
				if err != nil {
					return nil, err
				}
				grams[n] = g
			} else {
				grams[n] = mat.Gram(f)
			}
		}
		gramDur := time.Since(gramStart)
		if !opt.DistributeGram {
			c.RecordDriverSpan("gram", gramStart, gramDur)
		}
		drvStart := time.Now()
		next, bs := st.iterateWith(grams, func(mode int) *mat.Dense { return hs[mode] })
		delta := st.advanceNoResid(next, bs)
		drvDur := time.Since(drvStart)
		if opt.CheckpointEvery > 0 {
			ckStart := time.Now()
			if err := st.maybeCheckpoint(); err != nil {
				return nil, err
			}
			c.RecordDriverSpan("checkpoint", ckStart, time.Since(ckStart))
		}
		// Driver algebra (spectral B updates, Eq. 16 solves, Y/η updates)
		// runs between stages and is invisible to stage accounting.
		c.RecordDriverSpan("driver-algebra", drvStart, drvDur)
		ph := metrics.PhaseTimes{
			Iter:   st.iter,
			Gram:   gramDur,
			Driver: drvDur,
			Total:  time.Since(iterStart),
		}
		for _, s := range c.StageLogSince(mark) {
			switch {
			case strings.Contains(s.Name, "mttkrp-map"):
				ph.MTTKRPMap += s.Wall
			case strings.Contains(s.Name, "mttkrp-reduce"):
				ph.MTTKRPReduce += s.Wall
			}
			ph.BytesShuffled += s.BytesShuffled
		}
		st.phases = append(st.phases, ph)
		point := metrics.ConvergencePoint{
			Iter:    st.iter,
			Elapsed: time.Since(start),
			// The stage measured ‖E_t‖ before this iteration's update, so
			// the trace lags the serial solver's post-update RMSE by one
			// iteration — irrelevant for the convergence-rate plots.
			TrainRMSE: math.Sqrt(residNorm2 / float64(max(1, t.NNZ()))),
			MaxDelta:  delta,
		}
		st.trace = append(st.trace, point)
		if opt.OnIteration != nil {
			opt.OnIteration(point)
		}
		if st.stop(delta) {
			st.converged = true
			st.iter++
			break
		}
	}
	return st.result(start), nil
}

// layout is the immutable block structure computed once before the loop.
type Layout struct {
	order      int
	rank       int
	dims       []int
	blockParts [][]*TensorBlock
	// modeBounds[n] partitions mode n's rows for the reduce side.
	modeBounds []part.Boundaries
	// neededRows[p][n] lists (sorted, unique) the mode-n factor rows block p
	// touches.
	neededRows [][][]int32
	// locIdx[p] is the global→local row remap of partition p, parallel to its
	// blocks' concatenated Idx slabs: locIdx[p][e·N+n] is the position of
	// Idx[e·N+n] within neededRows[p][n]. The fused kernel accumulates into
	// flat per-mode slabs through it instead of hashing global row ids.
	locIdx [][]int32
	// rowRuns[p][n] are part.RunsOf offsets splitting neededRows[p][n] by
	// destination reduce partition, precomputed so the map task can slice its
	// accumulator slab into per-destination PackedRows records.
	rowRuns [][][]int
	parts   int
	// kernelOf[p] is the resolved MTTKRP kernel for partition p (fused or
	// SpMV), and modePerm[p][n] the per-mode entry permutation the SpMV walk
	// streams through (nil for mode 0, whose canonical order is already
	// correct, and for fused partitions). See planKernels.
	kernelOf []KernelMode
	modePerm [][][]int32
	// hs are the H_n matrices MTTKRPStage assembles into, reused by every
	// stage run over this layout (the only mutable state in it).
	hs []*mat.Dense
}

func NewLayout(t *sptensor.Tensor, opt DistOptions) *Layout {
	p := opt.Partitions
	order := t.Order()
	l := &Layout{
		order:      order,
		rank:       opt.Rank,
		dims:       t.Dims,
		parts:      p,
		modeBounds: make([]part.Boundaries, order),
	}
	for n := 0; n < order; n++ {
		if opt.UniformPartition {
			l.modeBounds[n] = part.Uniform(t.Dims[n], p)
		} else {
			l.modeBounds[n] = part.Greedy(t.ModeCounts(n), p)
		}
	}
	blocks := make([]*TensorBlock, p)
	for b := range blocks {
		blocks[b] = &TensorBlock{Order: order}
	}
	if opt.GridPartition {
		// Full grid blocking (the paper's P×Q×K compartmentalization):
		// every mode is split into g ranges and the g^N grid cells are dealt
		// round-robin onto the P engine partitions, so each partition covers
		// bounded index ranges in every mode. Oversplitting (≈4 cells per
		// partition) keeps the deal balanced when g^N is not a multiple of P
		// — otherwise a partition stuck with ⌈g^N/P⌉ cells bounds the stage.
		g := int(math.Ceil(math.Pow(4*float64(p), 1/float64(order))))
		if g < 1 {
			g = 1
		}
		gridBounds := make([]part.Boundaries, order)
		for n := 0; n < order; n++ {
			if opt.UniformPartition {
				gridBounds[n] = part.Uniform(t.Dims[n], g)
			} else {
				gridBounds[n] = part.Greedy(t.ModeCounts(n), g)
			}
		}
		for e := 0; e < t.NNZ(); e++ {
			idx := t.Index(e)
			cell := 0
			for n := 0; n < order; n++ {
				cn := gridBounds[n].PartitionOf(int(idx[n]))
				cell = cell*gridBounds[n].NumPartitions() + cn
			}
			blk := blocks[cell%p]
			blk.Idx = append(blk.Idx, idx...)
			blk.Val = append(blk.Val, t.Val[e])
		}
	} else {
		// Blocks split on mode 0: block b holds the slices whose mode-0
		// index falls in boundary range b.
		for e := 0; e < t.NNZ(); e++ {
			idx := t.Index(e)
			b := l.modeBounds[0].PartitionOf(int(idx[0]))
			blk := blocks[b]
			blk.Idx = append(blk.Idx, idx...)
			blk.Val = append(blk.Val, t.Val[e])
		}
	}
	l.blockParts = make([][]*TensorBlock, p)
	l.neededRows = make([][][]int32, p)
	l.locIdx = make([][]int32, p)
	l.rowRuns = make([][][]int, p)
	maxDim := 0
	for _, d := range t.Dims {
		maxDim = max(maxDim, d)
	}
	remap := make([]int32, maxDim) // global row → local slab index, per (block, mode)
	for b, blk := range blocks {
		sortEntriesModeMajor(blk)
		l.blockParts[b] = []*TensorBlock{blk}
		l.neededRows[b] = neededRows(blk)
		loc := make([]int32, len(blk.Idx))
		l.rowRuns[b] = make([][]int, order)
		for n := 0; n < order; n++ {
			rows := l.neededRows[b][n]
			for local, row := range rows {
				remap[row] = int32(local)
			}
			for e := 0; e < blk.NNZ(); e++ {
				loc[e*order+n] = remap[blk.Idx[e*order+n]]
			}
			l.rowRuns[b][n] = l.modeBounds[n].RunsOf(rows)
		}
		l.locIdx[b] = loc
	}
	l.planKernels(opt.Kernel)
	return l
}

// sortEntriesModeMajor reorders blk's entries lexicographically by their
// multi-index. Runs of entries then share their leading fibers, which lets
// the fused kernel reuse left-prefix Hadamard products (§III-C's row-wise
// fiber MTTKRP) and gives the accumulator slab a sequential access pattern on
// mode 0.
func sortEntriesModeMajor(blk *TensorBlock) {
	nnz := blk.NNZ()
	if nnz <= 1 {
		return
	}
	order := blk.Order
	perm := make([]int32, nnz)
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.Slice(perm, func(a, b int) bool {
		ia := blk.Idx[int(perm[a])*order : (int(perm[a])+1)*order]
		ib := blk.Idx[int(perm[b])*order : (int(perm[b])+1)*order]
		for n := 0; n < order; n++ {
			if ia[n] != ib[n] {
				return ia[n] < ib[n]
			}
		}
		return false
	})
	idx := make([]int32, len(blk.Idx))
	val := make([]float64, nnz)
	for i, e := range perm {
		copy(idx[i*order:(i+1)*order], blk.Idx[int(e)*order:(int(e)+1)*order])
		val[i] = blk.Val[e]
	}
	blk.Idx = idx
	blk.Val = val
}

// BlocksRDD wraps the layout's tensor blocks as a one-block-per-partition
// RDD (shared by DisTenC and the baselines that reuse its block structure).
func (l *Layout) BlocksRDD(c *rdd.Cluster) *rdd.RDD[*TensorBlock] {
	return rdd.FromPartitions(c, "tensor-blocks", l.blockParts)
}

// Parts returns the block count P.
func (l *Layout) Parts() int { return l.parts }

// ModeBounds returns mode n's row partitioning.
func (l *Layout) ModeBounds(n int) part.Boundaries { return l.modeBounds[n] }

// Dims returns the tensor's mode sizes.
func (l *Layout) Dims() []int { return l.dims }

// Order returns the tensor order N.
func (l *Layout) Order() int { return l.order }

// neededRows returns, per mode, the sorted unique factor rows blk touches —
// the "non-local factor matrix rows transferred to this process" of §III-C.
// Sort-based dedupe on a flat slice: gathering O(nnz) int32s and sorting is
// far cheaper than the O(nnz·N) hash-map inserts it replaces, and the sorted
// result is exactly what the local-id remap and per-destination row runs need.
func neededRows(blk *TensorBlock) [][]int32 {
	order := blk.Order
	nnz := blk.NNZ()
	out := make([][]int32, order)
	for n := 0; n < order; n++ {
		rows := make([]int32, nnz)
		for e := 0; e < nnz; e++ {
			rows[e] = blk.Idx[e*order+n]
		}
		slices.Sort(rows)
		out[n] = slices.Clip(slices.Compact(rows))
	}
	return out
}

// distributedGram computes A(n)ᵀA(n) = Σ_p A(n)ᵀ_(p)A(n)_(p) (Eq. 13): each
// partition's local Gram is an R×R matrix, aggregated on the driver. The
// product is symmetric, so each partition accumulates only the upper triangle
// and mirrors it once before emitting — half the multiply-adds per row.
func distributedGram(c *rdd.Cluster, f *mat.Dense, bounds part.Boundaries) (*mat.Dense, error) {
	rank := f.Cols()
	blocks := make([][][]float64, bounds.NumPartitions())
	for p := range blocks {
		lo, hi := bounds.Range(p)
		rows := make([][]float64, 0, hi-lo)
		for i := lo; i < hi; i++ {
			rows = append(rows, f.Row(i))
		}
		blocks[p] = rows
	}
	rowsRDD := rdd.FromPartitions(c, "gram-rows", blocks)
	//distenc:hotpath
	partial := rdd.MapPartitions(rowsRDD, "gram-partial", func(tc *rdd.TaskCtx, p int, in [][]float64) ([][]float64, error) {
		//distenc:coldpath -- one R×R slab per task that escapes through Reduce into the solver's Eq. 16 algebra; arena memory must not outlive the iteration
		g := make([]float64, rank*rank)
		for _, row := range in {
			for i := 0; i < rank; i++ {
				vi := row[i]
				if vi == 0 {
					continue
				}
				gi := g[i*rank : (i+1)*rank]
				for j := i; j < rank; j++ {
					gi[j] += vi * row[j]
				}
			}
		}
		for i := 1; i < rank; i++ {
			for j := 0; j < i; j++ {
				g[i*rank+j] = g[j*rank+i]
			}
		}
		return [][]float64{g}, nil
	})
	sum, ok, err := rdd.Reduce(partial, func(a, b []float64) []float64 {
		for i := range a {
			a[i] += b[i]
		}
		return a
	})
	if err != nil {
		return nil, err
	}
	if !ok {
		return mat.NewDense(rank, rank), nil
	}
	return mat.NewDenseData(rank, rank, sum), nil
}
