package bench

import (
	"fmt"
	"io"

	"distenc/internal/core"
	"distenc/internal/rdd"
	"distenc/internal/synth"
)

// WireRow is one wire format's shuffle traffic on the fixed workload.
type WireRow struct {
	Wire              rdd.WireFormat
	BytesShuffled     int64
	ReductionVsVarint float64 // varint bytes / this format's bytes
}

// Wires runs one fixed distributed solve under each shuffle wire format
// (once — BytesShuffled is deterministic) to measure what narrowing the
// values to f32 cuts from the lossless shuffle.
func Wires(w io.Writer, p Profile) []WireRow {
	p = p.withDefaults()
	dim, nnz, rank, iters := 4_000, 80_000, 10, 3
	if p.Small {
		dim, nnz = 1_000, 10_000
	}
	header(w, "Shuffle wire formats — f64 vs f32 values",
		"the f32 wire halves the Lemma 3 shuffle term")

	t := synth.ScalabilityTensor([]int{dim, dim, dim}, nnz, p.Seed)
	opt := core.Options{Rank: rank, MaxIter: iters, Tol: 0, Seed: p.Seed}

	fmt.Fprintf(w, "dim=%d nnz=%d rank=%d iters=%d machines=%d\n\n", dim, nnz, rank, iters, p.Machines)
	fmt.Fprintf(w, "%-8s | %12s %12s\n", "wire", "shuffledB", "vs varint")
	var wires []WireRow
	var varintBytes int64
	for _, wf := range []rdd.WireFormat{rdd.WireVarint, rdd.WireF32} {
		wp := p
		wp.Wire = wf
		o := runMethod(wp, MethodDisTenC, p.Machines, t, nil, opt, false)
		if o.Status != StatusOK {
			fmt.Fprintf(w, "%-8s | %s\n", wf, o.Status)
			continue
		}
		row := WireRow{Wire: wf, BytesShuffled: o.Metrics.BytesShuffled}
		if wf == rdd.WireVarint {
			varintBytes = row.BytesShuffled
		}
		if varintBytes > 0 {
			row.ReductionVsVarint = float64(varintBytes) / float64(row.BytesShuffled)
		}
		wires = append(wires, row)
		fmt.Fprintf(w, "%-8s | %12d %11.2fx\n", wf, row.BytesShuffled, row.ReductionVsVarint)
	}
	return wires
}
