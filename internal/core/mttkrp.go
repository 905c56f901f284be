package core

import (
	"encoding/binary"
	"fmt"
	"iter"

	"distenc/internal/mat"
	"distenc/internal/part"
	"distenc/internal/rdd"
)

// PackedRows is the MTTKRP shuffle record: every partial H_n row one map task
// sends to one reduce partition, packed as a row-id list plus a values slab
// (len(Rows)×R, row-major). Packing makes the shuffle O(P·N) slab records per
// map task instead of one record per row; Mode -1 carries the ‖E‖²_F
// side-channel in Vals[0]. The type implements rdd.BinaryRecord: shuffle
// blocks use the compact binary framing below — flowing through the
// engine's BytesShuffled accounting, which thereby counts compressed wire
// bytes — and the shuffle fetch path decodes payloads into task-arena slabs
// instead of fresh heap allocations.
//
// Wire frame (see DESIGN.md §III-C.2 for the byte-level diagram):
//
//	tag(u8) mode(u16 LE) nrows(uvarint) nvals(uvarint) rows… vals…
//
// where tag is rdd.WireVarint, rows are zigzag-varint deltas and vals are
// little-endian float64s. A frame with any other tag is refused.
type PackedRows struct {
	Mode int16
	// Wire is inert: every frame is written and read as rdd.WireVarint. It
	// stays because benchmark/ sets it (ROADMAP item 2).
	Wire rdd.WireFormat
	Rows []int32
	Vals []float64
}

// RecordSize implements rdd.BinaryRecord: the exact frame length, so the
// engine allocates a shuffle block once at its final size.
func (p *PackedRows) RecordSize() int {
	return 3 + rdd.UvarintLen(uint64(len(p.Rows))) + rdd.UvarintLen(uint64(len(p.Vals))) +
		rdd.DeltaRowsSize(p.Rows) + 8*len(p.Vals)
}

// AppendRecord implements rdd.BinaryRecord. It runs once per shuffle record
// on the map side's serialization path, into a block the engine pre-sized
// from RecordSize; the value helpers write their whole payload in one
// bounds-check-free pass.
//
//distenc:hotpath
func (p *PackedRows) AppendRecord(buf []byte) []byte {
	buf = append(buf, byte(rdd.WireVarint))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(p.Mode))
	buf = binary.AppendUvarint(buf, uint64(len(p.Rows)))
	buf = binary.AppendUvarint(buf, uint64(len(p.Vals)))
	buf = rdd.AppendDeltaRows(buf, p.Rows)
	return rdd.AppendF64Vals(buf, p.Vals)
}

// DecodeRecordArena implements rdd.BinaryRecord: the payload slices come from
// the task arena, so the shuffle fetch path of a steady-state iteration
// allocates nothing.
//
//distenc:hotpath
func (p *PackedRows) DecodeRecordArena(a *rdd.Arena, data []byte) ([]byte, error) {
	if len(data) < 3 {
		return nil, fmt.Errorf("core: packed record truncated at header")
	}
	if rdd.WireFormat(data[0]) != rdd.WireVarint {
		return nil, fmt.Errorf("core: packed record has unknown wire tag %d", data[0])
	}
	p.Mode = int16(binary.LittleEndian.Uint16(data[1:]))
	data = data[3:]
	nr, used := binary.Uvarint(data)
	if used <= 0 {
		return nil, fmt.Errorf("core: packed record truncated at row count")
	}
	data = data[used:]
	nv, used := binary.Uvarint(data)
	if used <= 0 {
		return nil, fmt.Errorf("core: packed record truncated at value count")
	}
	data = data[used:]
	// Bound the counts by the payload before doing arithmetic on them: nr
	// and nv come off the wire, so a naive nr*rowSize+nv*valSize length
	// check can wrap uint64 and slip a huge (or panicking) allocation past
	// it. A row costs at least one byte (varint delta) and a value eight, so
	// counts above those bounds are corrupt.
	if nr > uint64(len(data)) || nv > uint64(len(data))/8 {
		return nil, fmt.Errorf("core: packed record claims %d rows, %d values in a %d-byte payload", nr, nv, len(data))
	}
	p.Rows = a.Int32s(int(nr))
	p.Vals = a.Float64sDirty(int(nv)) // the value decoders overwrite it all, or fail the record
	data, err := rdd.DecodeDeltaRows(p.Rows, data)
	if err != nil {
		return nil, err
	}
	return rdd.DecodeF64Vals(p.Vals, data)
}

// fusedScratch is the per-task workspace of the fused kernel, allocated once
// per arena lifetime (stashed) rather than per entry or per mode.
type fusedScratch struct {
	// left holds the prefix products below the last level with stride R:
	// left[n·R : (n+1)·R] = ∗_{k<n} A(k)[i_k, :] for n < N (left[:R] is all
	// ones). The last level is never stored: its sum is the model value.
	left []float64
	// suf is the running suffix product with the residual folded in.
	suf []float64
	// rows holds the hoisted factor-row views of the current entry; the kernel
	// clears it on return, so no view of an iterate outlives the task.
	rows [][]float64
}

func newFusedScratch(order, rank int) *fusedScratch {
	return &fusedScratch{
		left: make([]float64, order*rank),
		suf:  make([]float64, rank),
		rows: make([][]float64, order),
	}
}

// useVecKernel routes order-3 blocks to the AVX2 body (vecBlockMTTKRP3). It
// is hasVecKernel, decided once at init; tests set it to run both bodies on
// one host.
var useVecKernel = hasVecKernel

// fusedBlockMTTKRP runs the fused residual + all-mode MTTKRP kernel over one
// tensor block, accumulating mode-n partials into the flat slab acc[n]
// (len(neededRows[n])×R, addressed through the precomputed local ids in loc)
// and returning the block's ‖E‖²_F contribution.
//
// Per entry it computes the model value and all N partials with left-prefix /
// right-suffix Hadamard products over hoisted factor rows — O(N·R) instead of
// the O(N²·R) of recomputing the rank-R product once per mode — and, because
// the layout sorts each block's entries mode-major, reuses the leading prefix
// products across runs of entries that share their leading fibers (the
// paper's row-wise fiber MTTKRP, §III-C).
//
// An order-3 block runs four ranks a step where the CPU has AVX2
// (kernel_amd64.s); every other block, and every block of a -race build, runs
// portableBlockMTTKRP. The two agree bit for bit.
//
//distenc:hotpath
func fusedBlockMTTKRP(blk *TensorBlock, loc []int32, factors []*mat.Dense, rank int, acc [][]float64, s *fusedScratch) float64 {
	if blk.Order == 3 && useVecKernel {
		return vecBlockMTTKRP3(blk, loc, factors, rank, acc, s)
	}
	return portableBlockMTTKRP(blk, loc, factors, rank, acc, s)
}

// portableBlockMTTKRP is fusedBlockMTTKRP in Go, for any order and target.
//
// An entry whose first differing mode is f costs 2N−f rank-length loops — at
// order 3 and f = 0 five loops and 11R flops — each ranging over one slice
// with its companions re-sliced to that length, so none keeps a bounds check
// (scripts/check_bce.sh). The operations and their order are those of the
// plain formulation that stores the full product, sums it, fills suf with the
// residual and runs mode 0 like every other mode (the test-only
// refBlockMTTKRP): the results agree bit for bit (DESIGN.md §5).
//
//distenc:hotpath
func portableBlockMTTKRP(blk *TensorBlock, loc []int32, factors []*mat.Dense, rank int, acc [][]float64, s *fusedScratch) float64 {
	order := blk.Order
	last := order - 1
	left, suf, rows := s.left, s.suf[:rank], s.rows
	for r := range left[:rank] {
		left[r] = 1
	}
	lastLeft := left[last*rank:][:len(suf)]
	var norm2, model float64
	for e, val := range blk.Val {
		idx := blk.Idx[e*order : (e+1)*order : (e+1)*order]
		lidx := loc[e*order : (e+1)*order : (e+1)*order]
		// Entries are sorted mode-major: prefixes up to the first differing
		// mode are unchanged from the previous entry and are reused as-is.
		firstDiff := 0
		if e > 0 {
			prev := blk.Idx[(e-1)*order : e*order]
			for firstDiff < order && idx[firstDiff] == prev[firstDiff] {
				firstDiff++
			}
		}
		for n := firstDiff; n < last; n++ {
			src := left[n*rank:][:len(suf)]
			dst := left[(n+1)*rank:][:len(suf)]
			row := factors[n].Row(int(idx[n]))[:len(suf)]
			rows[n] = row
			//bce:begin
			for r, v := range src {
				dst[r] = v * row[r]
			}
			//bce:end
		}
		// The model value is the sum of the last level's products. float64(·)
		// rounds each product where the plain formulation stored it, so a
		// target that fuses multiply-adds computes the same sum; a duplicate
		// entry (firstDiff == N) keeps the model it was carried in with.
		if firstDiff < order {
			row := factors[last].Row(int(idx[last]))[:len(suf)]
			rows[last] = row
			model = 0
			//bce:begin
			for r, v := range lastLeft {
				model += float64(v * row[r])
			}
			//bce:end
		}
		resid := val - model
		norm2 += float64(resid * resid)
		// Backward sweep: suf = resid · ∗_{k>n} A(k)[i_k, :], so the mode-n
		// partial is left[n] ⊙ suf, and one loop per mode both accumulates it
		// and extends suf.
		if last > 0 {
			row := rows[last][:len(suf)]
			dst := acc[last][int(lidx[last])*rank:][:len(suf)]
			//bce:begin
			for r, v := range lastLeft {
				dst[r] += float64(v * resid)
				suf[r] = resid * row[r]
			}
			//bce:end
		} else { // order 1: the last mode is mode 0, which accumulates below
			for r := range suf {
				suf[r] = resid
			}
		}
		for n := last - 1; n > 0; n-- {
			lf := left[n*rank:][:len(suf)]
			row := rows[n][:len(suf)]
			dst := acc[n][int(lidx[n])*rank:][:len(suf)]
			//bce:begin
			for r, t := range suf {
				dst[r] += float64(lf[r] * t)
				suf[r] = t * row[r]
			}
			//bce:end
		}
		// Mode 0's prefix is all ones, and 1·x is x.
		dst := acc[0][int(lidx[0])*rank:][:len(suf)]
		//bce:begin
		for r, t := range suf {
			dst[r] += t
		}
		//bce:end
	}
	clear(rows)
	return norm2
}

// addInto accumulates the record's partial rows into slab, the dense
// rank-wide accumulator of global rows lo, lo+1, … — the reduce side of the
// MTTKRP shuffle.
//
//distenc:hotpath
func (p *PackedRows) addInto(slab []float64, lo, rank int) {
	for i, row := range p.Rows {
		li := int(row) - lo
		dst := slab[li*rank : (li+1)*rank]
		src := p.Vals[i*rank:][:len(dst)]
		//bce:begin
		for r := range dst {
			dst[r] += src[r]
		}
		//bce:end
	}
}

// checkReduced vets a fetched record before reduce partition rp folds it: a
// worker's block passes the engine's length check whatever its bytes say,
// and a mode, value count or row id off the layout would index out of range.
func (p *PackedRows) checkReduced(rp, rank int, bounds []part.Boundaries) error {
	switch {
	case p.Mode < -1 || int(p.Mode) >= len(bounds):
		return fmt.Errorf("core: mttkrp reduce partition %d: record of mode %d, want -1 to %d", rp, p.Mode, len(bounds)-1)
	case p.Mode == -1:
		if len(p.Vals) != 1 {
			return fmt.Errorf("core: mttkrp reduce partition %d: mode -1 (‖E‖²) record carries %d values, want 1", rp, len(p.Vals))
		}
		return nil
	case len(p.Vals) != len(p.Rows)*rank:
		return fmt.Errorf("core: mttkrp reduce partition %d: mode %d record has %d values for %d rows at rank %d", rp, p.Mode, len(p.Vals), len(p.Rows), rank)
	case rp >= bounds[p.Mode].NumPartitions():
		return fmt.Errorf("core: mttkrp reduce partition %d: mode %d has no rows here, but a record sent %d", rp, p.Mode, len(p.Rows))
	}
	lo, hi := bounds[p.Mode].Range(rp)
	for _, row := range p.Rows {
		if int(row) < lo || int(row) >= hi {
			return fmt.Errorf("core: mttkrp reduce partition %d: mode %d row %d outside its rows [%d, %d)", rp, p.Mode, row, lo, hi)
		}
	}
	return nil
}

// HRows is a run of consecutive rows of one mode's H_n = E_(n)·U(n): rows
// Lo, Lo+1, … in Vals, R values a row, row-major. Mode −1 carries ‖E‖²_F in
// Vals[0] instead.
type HRows struct {
	Mode int16
	Lo   int
	Vals []float64
}

// mapSlabs points acc[n] at partition p's zeroed mode-n accumulator slab (one
// rank-wide row per needed row) and returns the one-element slot the task's
// ‖E‖²_F rides in — all cut from a single arena draw. Drawn one by one, the
// first cycle regrows the arena's backing once per draw and leaves it up to
// twice the demand; on solve-tcp-small that warm-up was 4 MB of peak RSS.
func (l *Layout) mapSlabs(a *rdd.Arena, p, rank int, acc [][]float64) (norm []float64) {
	total := 1
	for _, rows := range l.neededRows[p] {
		total += len(rows) * rank
	}
	slab := a.Float64s(total)
	for n, rows := range l.neededRows[p] {
		k := len(rows) * rank
		acc[n], slab = slab[:k:k], slab[k:]
	}
	return slab // the slot comes last: ahead of the rows it would shift them off the backing's alignment
}

// mttkrpMapScratch is the map task's stash-resident container set: the
// slice-of-slice headers and fixed-size kernel scratch survive across
// iterations in the arena stash, while the big slabs they point at are
// re-drawn from the (reset) arena every iteration.
type mttkrpMapScratch struct {
	acc   [][]float64
	out   [][]PackedRows
	fused *fusedScratch
}

// mttkrpReduceScratch is the reduce task's stash-resident output runs.
type mttkrpReduceScratch struct{ out []HRows }

// Arena stash keys for the two MTTKRP closures. A lineage recompute can run
// the map closure inside a reduce attempt's arena, so the keys must be
// distinct for the two scratch sets to coexist.
const (
	mttkrpMapStash    = "core.mttkrp.map"
	mttkrpReduceStash = "core.mttkrp.reduce"
)

// MTTKRPStage executes the per-iteration distributed stage and returns
// H_n = E_(n)·U(n), per mode the reduce slabs as runs tiling [0, I_n) in
// ascending order, plus ‖E‖²_F. The slabs live in task arenas until the next
// stage over the layout's partitions: read them before then, read only.
//
// The map side ships each block the factor rows its non-zeros touch (counted
// as shuffle traffic — the O(T·N·M·I·R) term of Lemma 3, eight bytes a
// value), runs the fused kernel into one flat accumulator
// slab per mode, and emits one PackedRows record per (destination partition,
// mode): the layout's sorted needed-row lists make each destination a
// contiguous slice of the slab. The reduce side folds each incoming block
// into its dense row ranges as it arrives, in map-partition order (it holds
// its slabs plus one decoded block, never all P), and returns the slabs
// themselves: a row no entry touches stays zero. The two sides run as
// distinct named stages — "mttkrp-map" (shuffle write) and "mttkrp-reduce"
// (collect) — so stage logs, phase attribution and fault-injection prefixes
// can tell the two apart.
//
// The shuffle lives exactly as long as the call: on return the exchange is
// retired — block images back to the cluster's pool for the next call to
// encode into, worker-held blocks dropped. A machine killed
// during the call is recovered from lineage; one killed later held nothing.
//
// All per-iteration scratch — accumulator slabs, decoded records, the reduce
// slabs — comes from the task arena, pooled by (machine, partition): map
// task p's accumulators are dead once encoded, so reduce task p folds into
// the same backing, and steady-state iterations allocate nothing.
func MTTKRPStage(c *rdd.Cluster, blocks *rdd.RDD[*TensorBlock], l *Layout, factors []*mat.Dense, opt DistOptions) ([][]HRows, float64, error) {
	rank := opt.Rank
	// Bytes of factor rows shipped to each block, eight a value. The flat
	// accumulator slabs the kernel fills have the same shape, and both are
	// live simultaneously on a real executor.
	shipSizes := make([]int64, l.parts)
	for p := 0; p < l.parts; p++ {
		var rows int64
		for n := 0; n < l.order; n++ {
			rows += int64(len(l.neededRows[p][n]))
		}
		shipSizes[p] = rows * int64(rank) * 8
	}
	bounds := l.modeBounds

	// The closures read factors and the layout without mutating them; on a
	// real cluster the touched rows are shipped to each block, and that
	// traffic is charged explicitly below (CountShuffled(shipSizes[p]), the
	// Lemma 3 term). Broadcasting the factors instead would replicate all
	// ΣI_n·R entries to every machine and erase the row-shipment accounting
	// the experiments measure, so the read-only capture is waived, not
	// converted. bounds is read-only layout metadata, a few dozen ints per
	// partition that ride along with the reduce task.
	//distenc:capture-ok factors l shipSizes bounds -- read-only; row shipment charged via CountShuffled per Lemma 3, layout metadata negligible against the slab shuffle
	//distenc:hotpath
	reduced := rdd.ShuffleMap(blocks, "mttkrp-map", "mttkrp-reduce", l.parts, func(tc *rdd.TaskCtx, p int, in []*TensorBlock) ([][]PackedRows, error) {
		if err := tc.ChargeTransient(2 * shipSizes[p]); err != nil {
			return nil, err
		}
		tc.CountShuffled(shipSizes[p])
		a := tc.Arena()
		ms, _ := a.Stash(mttkrpMapStash).(*mttkrpMapScratch)
		//distenc:coldpath -- first-use stash setup; every later iteration reuses these containers from the arena stash
		if ms == nil {
			ms = &mttkrpMapScratch{
				acc:   make([][]float64, l.order),
				out:   make([][]PackedRows, l.parts),
				fused: newFusedScratch(l.order, rank),
			}
			a.SetStash(mttkrpMapStash, ms)
		}
		acc := ms.acc
		nv := l.mapSlabs(a, p, rank, acc)
		var norm2 float64
		off := 0
		for _, blk := range in {
			norm2 += fusedBlockMTTKRP(blk, l.locIdx[p][off:off+len(blk.Idx)], factors, rank, acc, ms.fused)
			off += len(blk.Idx)
		}
		out := ms.out
		for i := range out {
			out[i] = out[i][:0]
		}
		//distenc:coldpath -- emission appends one record per (mode, destination) slab into stash-pooled capacity; grows only on the first iteration
		for n := 0; n < l.order; n++ {
			rows := l.neededRows[p][n]
			runs := l.rowRuns[p][n]
			for rp := 0; rp < len(runs)-1; rp++ {
				lo, hi := runs[rp], runs[rp+1]
				if lo == hi {
					continue
				}
				out[rp] = append(out[rp], PackedRows{
					Mode: int16(n),
					Rows: rows[lo:hi],
					Vals: acc[n][lo*rank : hi*rank],
				})
			}
		}
		// The residual-norm side-channel rides to reduce partition 0.
		nv[0] = norm2
		//distenc:coldpath -- one record per task into stash-pooled capacity
		out[0] = append(out[0], PackedRows{Mode: -1, Vals: nv})
		return out, nil
	}, func(tc *rdd.TaskCtx, rp int, blocks iter.Seq2[[]PackedRows, error]) ([]HRows, error) {
		a := tc.Arena()
		a.ReserveFloat64s(l.reduceNeed[rp]) // only dead slabs are in the arena yet
		rs, _ := a.Stash(mttkrpReduceStash).(*mttkrpReduceScratch)
		//distenc:coldpath -- first-use stash setup; every later iteration reuses these containers from the arena stash
		if rs == nil {
			rs = &mttkrpReduceScratch{out: make([]HRows, l.order, l.order+1)}
			a.SetStash(mttkrpReduceStash, rs)
		}
		// Every slab is drawn before the first block arrives: the arena region
		// a block is decoded into is rewound after it, with anything drawn
		// meanwhile. A mode shorter than the partition count has no rows here.
		out := rs.out[:l.order]
		for n := range out {
			out[n] = HRows{Mode: int16(n)}
			if rp >= bounds[n].NumPartitions() {
				continue
			}
			lo, hi := bounds[n].Range(rp)
			if err := tc.ChargeTransient(int64(hi-lo) * int64(rank) * 8); err != nil {
				return nil, err
			}
			out[n].Lo, out[n].Vals = lo, a.Float64s((hi-lo)*rank)
		}
		var norm2 float64
		for in, err := range blocks {
			if err != nil {
				return nil, err
			}
			for _, rec := range in {
				if err := rec.checkReduced(rp, rank, bounds); err != nil {
					return nil, err
				}
				if rec.Mode < 0 {
					norm2 += rec.Vals[0]
					continue
				}
				rec.addInto(out[rec.Mode].Vals, out[rec.Mode].Lo, rank)
			}
		}
		if rp == 0 {
			nv := a.Float64s(1)
			nv[0] = norm2
			// Not out = append(…): the loop body captures out, and a
			// reassigned capture moves to the heap.
			//distenc:coldpath -- one record per task into stash-pooled capacity
			return append(out, HRows{Mode: -1, Vals: nv}), nil
		}
		return out, nil
	})
	defer reduced.Unpersist()

	recs, err := reduced.Collect()
	if err != nil {
		return nil, 0, err
	}
	var norm2 float64
	for n := range l.hv {
		l.hv[n] = l.hv[n][:0]
	}
	for _, rec := range recs {
		switch {
		case rec.Mode < 0:
			norm2 += rec.Vals[0]
		case len(rec.Vals) > 0: // a partition past a short mode's last holds none of its rows
			l.hv[rec.Mode] = append(l.hv[rec.Mode], rec)
		}
	}
	return l.hv, norm2, nil
}
