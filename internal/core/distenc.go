package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"distenc/internal/graph"
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
	// GridPartition lets the blocking cut every mode instead of only mode 0
	// (the paper's P×Q×K compartmentalization, §III-C). The P blocks are the
	// leaves of a nested Algorithm 2 split of shape P₀×…×P_{N−1}, ΠPₙ = P:
	// mode 0 is cut into P₀ ranges balanced on its non-zero counts, each slab's
	// mode 1 into P₁ ranges balanced on that slab's counts, and so on, so the
	// blocks are balanced by construction and a mode-n row is touched by at
	// most P/Pₙ of them. The shape is the ordered factorization of P with the
	// smallest refined Lemma 3 bound Σₙ Σᵢ min(θₙ[i], P/Pₙ) on the partial rows
	// shuffled per iteration (chooseShape); false is the shape (P,1,…,1) of the
	// same split, which the search contains, so true never ships more by the
	// bound. Dealing an oversplit grid's cells round-robin, as this option
	// once did, puts every row range of every mode in every partition — the
	// full P·Iₙ rows Lemma 3 charges in the worst case — and leaves the blocks
	// unbalanced when the cell count is not a multiple of P. The solver's
	// mathematics is independent of the blocking.
	GridPartition bool
	// Kernel is inert: every value runs the fused kernel (see KernelMode).
	Kernel KernelMode
}

// KernelMode is inert: every value runs the fused kernel, the only one there
// is. The type, its constants, String and DistOptions.Kernel stay because
// benchmark/probes.go compiles against them; they leave with ROADMAP item 2's
// phase 2.
type KernelMode uint8

const (
	KernelAuto KernelMode = iota
	KernelFused
	KernelSpMV // named the deleted SpMV-chain kernel
)

var kernelNames = [...]string{KernelAuto: "auto", KernelFused: "fused", KernelSpMV: "spmv"}

// String labels the benchmark's probe spans.
func (k KernelMode) String() string { return kernelNames[k] }

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
//  3. The driver finishes the dense algebra in one row-tiled pass per mode
//     (solverState.update): the damped-Jacobi B-step on each sparse
//     Laplacian, Hadamard-of-Grams F_n (Eq. 12), the Eq. (16) factor update,
//     the Y/η bookkeeping and the next iteration's Grams — the serial
//     solver's code.
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
	if err := validateOptions(opt.Options); err != nil {
		return nil, err
	}
	lap := laplacians(sims)

	layout := NewLayout(t, opt)
	c.Note(layout.Blocking().String())
	for _, line := range graphNotes(lap) {
		c.Note(line)
	}
	blocksRDD := layout.BlocksRDD(c)
	blocksRDD.Cache()
	if err := blocksRDD.Materialize(); err != nil {
		return nil, fmt.Errorf("core: caching tensor blocks: %w", err)
	}
	defer blocksRDD.Unpersist()

	st := newSolverState(t, lap, opt.Options)
	if ck != nil {
		st.restore(ck)
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
		if err := st.checkResidual(residNorm2); err != nil {
			return nil, err
		}
		drvStart := time.Now()
		delta, err := st.update(hs)
		if err != nil {
			return nil, err
		}
		drvDur := time.Since(drvStart)
		if opt.CheckpointEvery > 0 {
			ckStart := time.Now()
			if err := st.maybeCheckpoint(); err != nil {
				return nil, err
			}
			c.RecordDriverSpan("checkpoint", ckStart, time.Since(ckStart))
		}
		// Driver algebra (B-steps, Eq. 16 solves, Y/η updates and the next
		// Grams) runs between stages and is invisible to stage accounting.
		c.RecordDriverSpan("driver-algebra", drvStart, drvDur)
		ph := metrics.PhaseTimes{
			Iter:   st.iter,
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
			TrainRMSE: trainRMSE(residNorm2, t.NNZ()),
			MaxDelta:  delta,
		}
		st.trace = append(st.trace, point)
		if opt.OnIteration != nil {
			opt.OnIteration(point)
		}
		if delta < st.opt.Tol {
			st.converged = true
			st.iter++
			break
		}
	}
	res := st.result(start)
	res.Blocking = layout.Blocking()
	return res, nil
}

// Layout is the immutable block structure computed once before the loop.
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
	// reduceNeed[rp] is reduce task rp's float64 arena demand: its dense
	// slabs plus the largest block it decodes, the ‖E‖² records included.
	reduceNeed []int
	parts      int
	// blocking is what the nested split chose and what it costs per iteration.
	blocking Blocking
	// hv holds the per-mode run lists MTTKRPStage returns, reused by every
	// stage run over this layout (the only mutable state in it).
	hv [][]HRows
}

// Blocking reports how a Layout cut the tensor into its P blocks and what
// that costs the MTTKRP shuffle.
type Blocking struct {
	// Shape is P₀×…×P_{N−1}, the number of ranges each mode is cut into; the
	// product is the block count P.
	Shape []int
	// PartialRows is the number of partial H_n rows the P map tasks emit per
	// iteration, all modes together (Σₚ Σₙ |rows of mode n block p touches|).
	PartialRows int64
	// Bound is the refined Lemma 3 bound Σₙ Σᵢ min(θₙ[i], P/Pₙ) on PartialRows
	// that the shape was chosen by.
	Bound int64
	// Imbalance is the largest block's non-zero count over the mean.
	Imbalance float64
}

// String renders the one-line form the CLI and Cluster.Summary print.
func (b Blocking) String() string {
	return fmt.Sprintf("blocking %s: %d partial rows/iter (bound %d), largest block %.2f× mean",
		shapeString(b.Shape), b.PartialRows, b.Bound, b.Imbalance)
}

// shapeString renders a shape as "2×2×1".
func shapeString(shape []int) string {
	dims := make([]string, len(shape))
	for n, pn := range shape {
		dims[n] = strconv.Itoa(pn)
	}
	return strings.Join(dims, "×")
}

// NewLayout blocks t for opt.Partitions map tasks with a nested Algorithm 2
// split (see GridPartition) and precomputes everything MTTKRPStage needs per
// block. It is a pure function of the tensor and the options, so retries,
// resume and both backends rebuild the same layout. The build is linear:
// O(nnz·N) for the entry passes plus O(P·ΣIₙ) for the per-slab histograms and
// row scans — the size of one iteration's worst-case shuffle (Lemma 3).
func NewLayout(t *sptensor.Tensor, opt DistOptions) *Layout {
	p := opt.Partitions
	order := t.Order()
	l := &Layout{
		order:      order,
		rank:       opt.Rank,
		dims:       t.Dims,
		parts:      p,
		modeBounds: make([]part.Boundaries, order),
		blockParts: make([][]*TensorBlock, p),
		neededRows: make([][][]int32, p),
		locIdx:     make([][]int32, p),
		rowRuns:    make([][][]int, p),
		hv:         make([][]HRows, order),
		reduceNeed: make([]int, p),
	}
	counts := make([][]int64, order)
	for n := 0; n < order; n++ {
		counts[n] = t.ModeCounts(n)
		if opt.UniformPartition {
			l.modeBounds[n] = part.Uniform(t.Dims[n], p)
		} else {
			l.modeBounds[n] = part.Greedy(counts[n], p)
		}
	}
	l.blocking.Shape, l.blocking.Bound = chooseShape(counts, p, opt.GridPartition)
	blocks := splitNested(t, counts, l.blocking.Shape, opt.UniformPartition)

	// local[row] is 0 for a row the (block, mode) at hand does not touch, else
	// the row's position in the block's needed-row list plus one.
	local := make([]int32, slices.Max(t.Dims))
	maxBlock := 0
	for b, blk := range blocks {
		sortEntriesModeMajor(blk)
		nnz := blk.NNZ()
		maxBlock = max(maxBlock, nnz)
		l.blockParts[b] = []*TensorBlock{blk}
		l.neededRows[b] = make([][]int32, order)
		l.rowRuns[b] = make([][]int, order)
		loc := make([]int32, len(blk.Idx))
		for n := 0; n < order; n++ {
			rows := neededRows(blk, n, local)
			for e := 0; e < nnz; e++ {
				loc[e*order+n] = local[blk.Idx[e*order+n]] - 1
			}
			for _, row := range rows {
				local[row] = 0
			}
			l.neededRows[b][n] = rows
			l.rowRuns[b][n] = l.modeBounds[n].RunsOf(rows)
			l.blocking.PartialRows += int64(len(rows))
		}
		l.locIdx[b] = loc
	}
	for rp := range l.reduceNeed {
		for _, runs := range l.rowRuns { // the largest block rp decodes
			rows := 0
			for _, r := range runs {
				if rp < len(r)-1 {
					rows += r[rp+1] - r[rp]
				}
			}
			l.reduceNeed[rp] = max(l.reduceNeed[rp], rows*opt.Rank)
		}
		for _, b := range l.modeBounds { // and its slabs
			if rp < b.NumPartitions() {
				lo, hi := b.Range(rp)
				l.reduceNeed[rp] += (hi - lo) * opt.Rank
			}
		}
	}
	l.reduceNeed[0]++ // every map task's ‖E‖² record rides to partition 0
	l.blocking.Imbalance = 1
	if t.NNZ() > 0 {
		l.blocking.Imbalance = float64(maxBlock) * float64(p) / float64(t.NNZ())
	}
	return l
}

// chooseShape picks the shape P₀×…×P_{N−1}, ΠPₙ = p, of the nested split from
// the per-mode non-zero histograms θₙ. Under such a split a mode-n row lies
// in one mode-n range of every slab above it, so at most p/Pₙ blocks touch it
// — and never more blocks than it has non-zeros — which refines Lemma 3's
// per-iteration shuffle of P·Iₙ partial rows per mode to
//
//	Σₙ Σᵢ min(θₙ[i], p/Pₙ).
//
// The shape minimizing that bound wins; ties go to the shape that cuts the
// earlier mode finer. Without grid only mode 0 is cut, the shape (p,1,…,1).
// A factor larger than its mode's length is skipped, unless no shape fits: then
// the ranges clamp to the mode's length and the surplus blocks stay empty.
func chooseShape(counts [][]int64, p int, grid bool) (shape []int, bound int64) {
	var divs []int
	for d := p; d >= 1; d-- {
		if p%d == 0 {
			divs = append(divs, d)
		}
	}
	// rows[n][k] is mode n's term of the bound when it is cut into divs[k] ranges.
	rows := make([][]int64, len(counts))
	for n, theta := range counts {
		rows[n] = make([]int64, len(divs))
		for k, d := range divs {
			fan := int64(p / d)
			for _, c := range theta {
				rows[n][k] += min(c, fan)
			}
		}
	}
	shape = make([]int, len(counts))
	cur := make([]int, len(counts))
	bound = -1
	fit := true
	var search func(n, rem int, cost int64)
	search = func(n, rem int, cost int64) {
		if n == len(counts) {
			if rem == 1 && (bound < 0 || cost < bound) {
				bound = cost
				copy(shape, cur)
			}
			return
		}
		for k, d := range divs {
			if rem%d != 0 || (fit && d > len(counts[n])) || (!grid && n > 0 && d > 1) {
				continue
			}
			cur[n] = d
			search(n+1, rem/d, cost+rows[n][k])
		}
	}
	if search(0, p, 0); bound < 0 {
		fit = false
		search(0, p, 0)
	}
	return shape, bound
}

// splitNested cuts t into the Πshape blocks of the nested Algorithm 2 split:
// mode 0 into shape[0] ranges balanced on its non-zero counts, each of those
// slabs' mode 1 into shape[1] ranges balanced on that slab's own counts, and
// so on down the modes. The leaves are the blocks — balanced by construction,
// where the P×Q×K grid of one boundary set per mode is balanced only when the
// modes are independent — and a leaf's id is the mixed-radix number of its
// range indices. Entries keep their relative order within a block. counts are
// the whole tensor's per-mode histograms (what the first cut mode needs).
func splitNested(t *sptensor.Tensor, counts [][]int64, shape []int, uniform bool) []*TensorBlock {
	order, nnz := t.Order(), t.NNZ()
	cell := make([]int32, nnz) // the slab each entry has reached so far
	slabs := 1
	for n, pn := range shape {
		if pn == 1 {
			continue
		}
		dim := t.Dims[n]
		// hist[s·dim+i] counts slab s's non-zeros in mode-n row i, and
		// rangeOf[s·dim+i] is the range of slab s that row falls in.
		hist := counts[n]
		if slabs > 1 && !uniform {
			hist = make([]int64, slabs*dim)
			for e, s := range cell {
				hist[int(s)*dim+int(t.Idx[e*order+n])]++
			}
		}
		rangeOf := make([]int32, slabs*dim)
		for s := 0; s < slabs; s++ {
			var b part.Boundaries
			if uniform {
				b = part.Uniform(dim, pn)
			} else {
				b = part.Greedy(hist[s*dim:(s+1)*dim], pn)
			}
			for r := 0; r < b.NumPartitions(); r++ {
				lo, hi := b.Range(r)
				for i := lo; i < hi; i++ {
					rangeOf[s*dim+i] = int32(r)
				}
			}
		}
		for e, s := range cell {
			cell[e] = s*int32(pn) + rangeOf[int(s)*dim+int(t.Idx[e*order+n])]
		}
		slabs *= pn
	}

	// Count, then fill: every block's slabs are allocated once at their size.
	fill := make([]int, slabs)
	for _, c := range cell {
		fill[c]++
	}
	blocks := make([]*TensorBlock, slabs)
	for b := range blocks {
		blocks[b] = &TensorBlock{Order: order, Idx: make([]int32, fill[b]*order), Val: make([]float64, fill[b])}
		fill[b] = 0
	}
	for e, c := range cell {
		blk, k := blocks[c], fill[c]
		copy(blk.Idx[k*order:(k+1)*order], t.Idx[e*order:(e+1)*order])
		blk.Val[k] = t.Val[e]
		fill[c] = k + 1
	}
	return blocks
}

// sortEntriesModeMajor reorders blk's entries lexicographically by their
// multi-index. Runs of entries then share their leading fibers, which lets
// the fused kernel reuse left-prefix Hadamard products (§III-C's row-wise
// fiber MTTKRP) and gives the accumulator slab a sequential access pattern on
// mode 0. A coalesced tensor arrives sorted and splitNested keeps entry order,
// so the usual block is sorted already and costs one scan.
func sortEntriesModeMajor(blk *TensorBlock) {
	nnz := blk.NNZ()
	order := blk.Order
	less := func(a, b int) bool {
		ia := blk.Idx[a*order : (a+1)*order]
		ib := blk.Idx[b*order : (b+1)*order]
		for n := 0; n < order; n++ {
			if ia[n] != ib[n] {
				return ia[n] < ib[n]
			}
		}
		return false
	}
	sorted := true
	for e := 1; e < nnz && sorted; e++ {
		sorted = !less(e, e-1)
	}
	if sorted {
		return
	}
	perm := make([]int32, nnz)
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.Slice(perm, func(a, b int) bool { return less(int(perm[a]), int(perm[b])) })
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

// Shape returns P₀×…×P_{N−1}, the ranges per mode of the nested split.
func (l *Layout) Shape() []int { return l.blocking.Shape }

// PartialRows returns the partial H_n rows the map tasks emit per iteration.
func (l *Layout) PartialRows() int64 { return l.blocking.PartialRows }

// Blocking returns the chosen shape with its cost and balance.
func (l *Layout) Blocking() Blocking { return l.blocking }

// Dims returns the tensor's mode sizes.
func (l *Layout) Dims() []int { return l.dims }

// Order returns the tensor order N.
func (l *Layout) Order() int { return l.order }

// neededRows returns the sorted unique mode-n factor rows blk touches — the
// "non-local factor matrix rows transferred to this process" of §III-C — and
// leaves local[row] = position+1 for each of them (the caller zeroes those
// again; local must be all zero on entry). Mark, then scan the block's row
// range: O(nnz + range), no sort.
func neededRows(blk *TensorBlock, n int, local []int32) []int32 {
	order := blk.Order
	lo, hi, distinct := int32(math.MaxInt32), int32(-1), 0
	for e := n; e < len(blk.Idx); e += order {
		row := blk.Idx[e]
		if local[row] == 0 {
			local[row] = 1
			distinct++
			lo, hi = min(lo, row), max(hi, row)
		}
	}
	rows := make([]int32, 0, distinct)
	for row := lo; row <= hi; row++ {
		if local[row] != 0 {
			rows = append(rows, row)
			local[row] = int32(len(rows))
		}
	}
	return rows
}
