package bench

import (
	"fmt"
	"io"
	"slices"

	"distenc/internal/core"
	"distenc/internal/rdd"
	"distenc/internal/synth"
)

// Summary condenses repeated timing samples. Wall-clock on a shared host is
// noisy in one direction only — interference makes runs slower, never
// faster — so the min is the stable signal and the median shows the spread;
// every timing table in this package reports both.
type Summary struct {
	Min    float64
	Median float64
}

// summarize computes min and median of xs (NaN-free input assumed).
func summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	med := s[len(s)/2]
	if len(s)%2 == 0 {
		med = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return Summary{Min: s[0], Median: med}
}

// KernelRow is one kernel's repeated-run timing on the fixed workload.
type KernelRow struct {
	Kernel  core.KernelMode
	Seconds Summary
}

// WireRow is one wire format's shuffle traffic on the fixed workload.
type WireRow struct {
	Wire              rdd.WireFormat
	BytesShuffled     int64
	ReductionVsVarint float64 // varint bytes / this format's bytes
}

// Kernels benchmarks the MTTKRP kernel and wire-format matrix on one fixed
// workload: each kernel runs the full distributed solve several times
// (min/median wall-clock reported — the noise-robust form of
// BenchmarkMTTKRPStage), and each wire format runs once (BytesShuffled is
// deterministic) to measure what narrowing the values to f32 cuts from the
// lossless shuffle.
func Kernels(w io.Writer, p Profile) ([]KernelRow, []WireRow) {
	p = p.withDefaults()
	dim, nnz, rank, iters, reps := 4_000, 80_000, 10, 3, 5
	if p.Small {
		dim, nnz, reps = 1_000, 10_000, 3
	}
	header(w, "MTTKRP kernels & wire formats — fused vs SpMV-chain, f64 vs f32 shuffle values",
		"auto runs fused, the faster kernel; the f32 wire halves the Lemma 3 shuffle term")

	t := synth.ScalabilityTensor([]int{dim, dim, dim}, nnz, p.Seed)
	opt := core.Options{Rank: rank, MaxIter: iters, Tol: 0, Seed: p.Seed}

	fmt.Fprintf(w, "dim=%d nnz=%d rank=%d iters=%d machines=%d reps=%d\n\n", dim, nnz, rank, iters, p.Machines, reps)
	fmt.Fprintf(w, "%-8s | %10s %10s\n", "kernel", "min s", "median s")
	var kernels []KernelRow
	for _, k := range []core.KernelMode{core.KernelFused, core.KernelSpMV, core.KernelAuto} {
		kp := p
		kp.Kernel = k
		secs := make([]float64, 0, reps)
		for r := 0; r < reps; r++ {
			o := runMethod(kp, MethodDisTenC, p.Machines, t, nil, opt, false)
			if o.Status != StatusOK {
				fmt.Fprintf(w, "%-8s | %s\n", k, o.Status)
				secs = nil
				break
			}
			secs = append(secs, o.Elapsed.Seconds())
		}
		if secs == nil {
			continue
		}
		row := KernelRow{Kernel: k, Seconds: summarize(secs)}
		kernels = append(kernels, row)
		fmt.Fprintf(w, "%-8s | %10.3f %10.3f\n", k, row.Seconds.Min, row.Seconds.Median)
	}

	fmt.Fprintf(w, "\n%-8s | %12s %12s\n", "wire", "shuffledB", "vs varint")
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
	return kernels, wires
}
