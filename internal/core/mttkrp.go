package core

import (
	"encoding/binary"
	"fmt"
	"iter"
	"slices"

	"distenc/internal/mat"
	"distenc/internal/rdd"
)

// PackedRows is the MTTKRP shuffle record: every partial H_n row one map task
// sends to one reduce partition, packed as a row-id list plus a values slab
// (len(Rows)×R, row-major). Packing makes the shuffle O(P·N) slab records per
// map task instead of one record per row; Mode -1 carries the ‖E‖²_F
// side-channel in Vals[0]. The type implements rdd.ArenaBinaryRecord: shuffle
// blocks use the compact binary framing below — flowing through the
// engine's BytesShuffled accounting, which thereby counts compressed wire
// bytes — and the shuffle fetch path decodes payloads into task-arena slabs
// instead of fresh heap allocations.
//
// Wire frame (see DESIGN.md §III-C.2 for the byte-level diagram):
//
//	tag(u8) mode(u16 LE) nrows(uvarint) nvals(uvarint) rows… vals…
//
// where tag is the rdd.WireFormat: WireVarint ships zigzag-varint delta-coded
// rows + f64 values, WireF32 the same rows + f32 values (widened to f64 on
// decode). The tag rides in every frame, so a decoded record re-encodes
// bit-identically and mixed-format blocks are well-defined.
type PackedRows struct {
	Mode int16
	// Wire is the frame format used on encode (zero encodes as WireVarint)
	// and observed on decode.
	Wire rdd.WireFormat
	Rows []int32
	Vals []float64
}

// wire resolves the frame format AppendRecord writes.
func (p *PackedRows) wire() rdd.WireFormat {
	if !p.Wire.Valid() {
		return rdd.WireVarint
	}
	return p.Wire
}

// RecordSize implements rdd.BinaryRecord: the exact frame length, so the
// engine allocates a shuffle block once at its final size.
func (p *PackedRows) RecordSize() int {
	return 3 + rdd.UvarintLen(uint64(len(p.Rows))) + rdd.UvarintLen(uint64(len(p.Vals))) +
		rdd.DeltaRowsSize(p.Rows) + int(p.wire().BytesPerVal())*len(p.Vals)
}

// AppendRecord implements rdd.BinaryRecord. It runs once per shuffle record
// on the map side's serialization path, into a block the engine pre-sized
// from RecordSize; the value helpers write their whole payload in one
// bounds-check-free pass.
//
//distenc:hotpath
func (p *PackedRows) AppendRecord(buf []byte) []byte {
	w := p.wire()
	buf = append(buf, byte(w))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(p.Mode))
	buf = binary.AppendUvarint(buf, uint64(len(p.Rows)))
	buf = binary.AppendUvarint(buf, uint64(len(p.Vals)))
	buf = rdd.AppendDeltaRows(buf, p.Rows)
	if w == rdd.WireF32 {
		return rdd.AppendF32Vals(buf, p.Vals)
	}
	return rdd.AppendF64Vals(buf, p.Vals)
}

// DecodeRecord implements rdd.BinaryRecord, allocating the payload slices on
// the heap — the right lifetime for arena-less callers (checkpoint reads,
// the codec fuzzer).
func (p *PackedRows) DecodeRecord(data []byte) ([]byte, error) {
	return p.decode(nil, data)
}

// DecodeRecordArena implements rdd.ArenaBinaryRecord: like DecodeRecord but
// the payload slices come from the task arena, so the shuffle fetch path of
// a steady-state iteration allocates nothing.
func (p *PackedRows) DecodeRecordArena(a *rdd.Arena, data []byte) ([]byte, error) {
	return p.decode(a, data)
}

//distenc:hotpath
func (p *PackedRows) decode(a *rdd.Arena, data []byte) ([]byte, error) {
	if len(data) < 3 {
		return nil, fmt.Errorf("core: packed record truncated at header")
	}
	w := rdd.WireFormat(data[0])
	if !w.Valid() {
		return nil, fmt.Errorf("core: packed record has unknown wire tag %d", data[0])
	}
	p.Wire = w
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
	// it. A row costs at least one byte (varint delta) and a value its wire
	// width, so counts above those bounds are corrupt.
	if nr > uint64(len(data)) || nv > uint64(len(data))/uint64(w.BytesPerVal()) {
		return nil, fmt.Errorf("core: packed record claims %d rows, %d values in a %d-byte payload", nr, nv, len(data))
	}
	if a != nil {
		p.Rows = a.Int32s(int(nr))
		p.Vals = a.Float64sDirty(int(nv)) // the value decoders overwrite it all, or fail the record
	}
	//distenc:coldpath -- heap fallback for arena-less callers (checkpoint reads, fuzzing); the shuffle fetch hot path passes an arena
	if a == nil {
		p.Rows = make([]int32, nr)
		p.Vals = make([]float64, nv)
	}
	data, err := rdd.DecodeDeltaRows(p.Rows, data)
	if err != nil {
		return nil, err
	}
	if w == rdd.WireF32 {
		data, err = rdd.DecodeF32Vals(p.Vals, data)
	} else {
		data, err = rdd.DecodeF64Vals(p.Vals, data)
	}
	if err != nil {
		return nil, err
	}
	return data, nil
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
// An entry whose first differing mode is f costs 2N−f rank-length loops — at
// order 3 and f = 0 five loops and 11R flops — each ranging over one slice
// with its companions re-sliced to that length, so none keeps a bounds check
// (scripts/check_bce.sh). The operations and their order are those of the
// plain formulation that stores the full product, sums it, fills suf with the
// residual and runs mode 0 like every other mode (the test-only
// refBlockMTTKRP): the results agree bit for bit (DESIGN.md §5).
//
//distenc:hotpath
func fusedBlockMTTKRP(blk *TensorBlock, loc []int32, factors []*mat.Dense, rank int, acc [][]float64, s *fusedScratch) float64 {
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
		norm2 += resid * resid
		// Backward sweep: suf = resid · ∗_{k>n} A(k)[i_k, :], so the mode-n
		// partial is left[n] ⊙ suf, and one loop per mode both accumulates it
		// and extends suf.
		if last > 0 {
			row := rows[last][:len(suf)]
			dst := acc[last][int(lidx[last])*rank:][:len(suf)]
			//bce:begin
			for r, v := range lastLeft {
				dst[r] += v * resid
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
				dst[r] += lf[r] * t
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
// rank-wide accumulator of global rows lo, lo+1, …, and marks each row it
// hits in touched — the reduce side of the MTTKRP shuffle.
//
//distenc:hotpath
func (p *PackedRows) addInto(slab []float64, touched []bool, lo, rank int) {
	for i, row := range p.Rows {
		li := int(row) - lo
		touched[li] = true
		dst := slab[li*rank : (li+1)*rank]
		src := p.Vals[i*rank:][:len(dst)]
		//bce:begin
		for r := range dst {
			dst[r] += src[r]
		}
		//bce:end
	}
}

// compactRows squeezes the touched rows of a reduce slab to its front — in
// place, so the values are moved at most once and need no second slab — and
// returns them as mode n's reduced record.
//
//distenc:hotpath
func compactRows(a *rdd.Arena, n, lo, rank int, slab []float64, touched []bool) PackedRows {
	rows := a.Int32s(len(touched))
	ri := 0
	for li, t := range touched {
		if !t {
			continue
		}
		rows[ri] = int32(lo + li)
		if ri != li {
			copy(slab[ri*rank:(ri+1)*rank], slab[li*rank:(li+1)*rank])
		}
		ri++
	}
	return PackedRows{Mode: int16(n), Rows: rows[:ri], Vals: slab[:ri*rank]}
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

// mttkrpReduceScratch is the reduce task's stash-resident container set.
type mttkrpReduceScratch struct {
	slabs   [][]float64
	touched [][]bool
	out     []PackedRows
}

// Arena stash keys for the two MTTKRP closures. A lineage recompute can run
// the map closure inside a reduce attempt's arena, so the keys must be
// distinct for the two scratch sets to coexist.
const (
	mttkrpMapStash    = "core.mttkrp.map"
	mttkrpReduceStash = "core.mttkrp.reduce"
)

// MTTKRPStage executes the per-iteration distributed stage and returns the
// assembled H_n = E_(n)·U(n) matrices plus ‖E‖²_F. The matrices belong to
// the layout and are overwritten by its next MTTKRPStage call: read them
// before then, and do not write to them.
//
// The map side ships each block the factor rows its non-zeros touch (counted
// as shuffle traffic — the O(T·N·M·I·R) term of Lemma 3, scaled by the wire
// format's bytes-per-value), runs the fused kernel into one flat accumulator
// slab per mode, and emits one PackedRows record per (destination partition,
// mode): the layout's sorted needed-row lists make each destination a
// contiguous slice of the slab. The reduce side folds each incoming block
// into its dense row ranges as it arrives, in map-partition order (it holds
// its slabs plus one decoded block, never all P), and returns one compacted
// record per mode for the driver to scatter into H_n. The two sides run as
// distinct named stages — "mttkrp-map" (shuffle write) and "mttkrp-reduce"
// (collect) — so stage logs, phase attribution and fault-injection prefixes
// can tell the two apart.
//
// The shuffle lives exactly as long as the call: on return the exchange is
// retired — block images back to the cluster's pool for the next call to
// encode into, spill files and worker-held blocks dropped. A machine killed
// during the call is recovered from lineage; one killed later held nothing.
//
// All per-iteration scratch — accumulator slabs, emitted and compacted record
// payloads — comes from the task arena, which the cluster pools by (machine,
// stage, partition): after the first iteration sizes the slabs, steady-state
// iterations allocate nothing.
func MTTKRPStage(c *rdd.Cluster, blocks *rdd.RDD[*TensorBlock], l *Layout, factors []*mat.Dense, opt DistOptions) ([]*mat.Dense, float64, error) {
	rank := opt.Rank
	wire := opt.Wire
	if !wire.Valid() {
		wire = rdd.WireVarint
	}
	// Snapshot the factor slice: under speculative execution a losing
	// duplicate attempt can outlive this stage, and the solver overwrites
	// its factors slice entries (advance) as soon as the stage returns. The
	// matrices themselves are immutable once published — only the slice slots
	// are rewritten — so a shallow clone pins what the zombie reads.
	factors = slices.Clone(factors)
	// Bytes of factor rows shipped to each block (at the wire format's value
	// width — the rows travel over the same compressed shuffle), plus the
	// flat accumulator slabs the kernel fills — all live simultaneously on a
	// real executor.
	shipSizes := make([]int64, l.parts)
	slabSizes := make([]int64, l.parts)
	for p := 0; p < l.parts; p++ {
		var rows int64
		for n := 0; n < l.order; n++ {
			rows += int64(len(l.neededRows[p][n]))
		}
		shipSizes[p] = rows * int64(rank) * wire.BytesPerVal()
		slabSizes[p] = rows * int64(rank) * 8
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
	//distenc:capture-ok factors l shipSizes slabSizes wire bounds -- read-only; row shipment charged via CountShuffled per Lemma 3, layout metadata negligible against the slab shuffle
	//distenc:hotpath
	reduced := rdd.ShuffleMap(blocks, "mttkrp-map", "mttkrp-reduce", l.parts, func(tc *rdd.TaskCtx, p int, in []*TensorBlock) ([][]PackedRows, error) {
		if err := tc.ChargeTransient(shipSizes[p] + slabSizes[p]); err != nil {
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
					Wire: wire,
					Rows: rows[lo:hi],
					Vals: acc[n][lo*rank : hi*rank],
				})
			}
		}
		// The residual-norm side-channel rides to reduce partition 0.
		nv[0] = norm2
		//distenc:coldpath -- one record per task into stash-pooled capacity
		out[0] = append(out[0], PackedRows{Mode: -1, Wire: wire, Vals: nv})
		return out, nil
	}, func(tc *rdd.TaskCtx, rp int, blocks iter.Seq2[[]PackedRows, error]) ([]PackedRows, error) {
		a := tc.Arena()
		rs, _ := a.Stash(mttkrpReduceStash).(*mttkrpReduceScratch)
		//distenc:coldpath -- first-use stash setup; every later iteration reuses these containers from the arena stash
		if rs == nil {
			rs = &mttkrpReduceScratch{
				slabs:   make([][]float64, l.order),
				touched: make([][]bool, l.order),
			}
			a.SetStash(mttkrpReduceStash, rs)
		}
		// Every slab is drawn before the first block arrives: the arena region
		// a block is decoded into is rewound after it, with anything drawn
		// meanwhile. A mode shorter than the partition count has no rows here.
		slabs, touched := rs.slabs, rs.touched
		for n := range slabs {
			slabs[n], touched[n] = nil, nil
			if rp >= bounds[n].NumPartitions() {
				continue
			}
			lo, hi := bounds[n].Range(rp)
			// One rank-wide float64 row plus one byte of touched-bitmap per
			// row — not (rank+1) full words, which over-charged the bitmap 8×.
			if err := tc.ChargeTransient(int64(hi-lo) * (int64(rank)*8 + 1)); err != nil {
				return nil, err
			}
			slabs[n] = a.Float64s((hi - lo) * rank)
			touched[n] = a.Bools(hi - lo)
		}
		var norm2 float64
		for in, err := range blocks {
			if err != nil {
				return nil, err
			}
			for _, rec := range in {
				if rec.Mode < 0 {
					norm2 += rec.Vals[0]
					continue
				}
				lo, _ := bounds[rec.Mode].Range(rp)
				rec.addInto(slabs[rec.Mode], touched[rec.Mode], lo, rank)
			}
		}
		out := rs.out[:0]
		for n := range slabs {
			if slabs[n] == nil {
				continue
			}
			lo, _ := bounds[n].Range(rp)
			//distenc:coldpath -- one record per mode into stash-pooled capacity
			out = append(out, compactRows(a, n, lo, rank, slabs[n], touched[n]))
		}
		if rp == 0 {
			nv := a.Float64s(1)
			nv[0] = norm2
			//distenc:coldpath -- one record per task into stash-pooled capacity
			out = append(out, PackedRows{Mode: -1, Vals: nv})
		}
		rs.out = out
		return out, nil
	})
	defer reduced.Unpersist()

	recs, err := reduced.Collect()
	if err != nil {
		return nil, 0, err
	}
	// The rows a stage writes are fixed by the layout — every row with an
	// observed entry, each overwritten in full, the rest never touched — so
	// the H_n matrices are allocated once per layout and neither re-zeroed
	// nor re-allocated afterwards.
	if l.hs == nil {
		l.hs = make([]*mat.Dense, l.order)
		for n := range l.hs {
			l.hs[n] = mat.NewDense(l.dims[n], rank)
		}
	}
	var norm2 float64
	for _, rec := range recs {
		if rec.Mode < 0 {
			norm2 += rec.Vals[0]
			continue
		}
		h := l.hs[rec.Mode]
		for i, row := range rec.Rows {
			copy(h.Row(int(row)), rec.Vals[i*rank:(i+1)*rank])
		}
	}
	return l.hs, norm2, nil
}
