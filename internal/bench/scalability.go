package bench

import (
	"fmt"
	"io"
	"time"

	"distenc/internal/core"
	"distenc/internal/graph"
	"distenc/internal/synth"
)

// Fig3a reproduces Figure 3a: running time (fixed iteration count) versus
// dimensionality I=J=K, with identity similarity and a per-machine memory
// budget. TFAI must fail first (dense intermediates), then ALS and
// FlexiFact (full factor replication), while DisTenC and SCouT reach the
// largest dimensionality.
func Fig3a(w io.Writer, p Profile) []Outcome {
	p = p.withDefaults()
	dims := []int{100, 1_000, 10_000, 100_000, 1_000_000}
	nnz, rank, iters := 100_000, 10, 3
	if p.Small {
		dims = []int{50, 500, 5_000}
		nnz, iters = 10_000, 2
	}
	header(w, "Figure 3a — runtime vs dimensionality",
		"TFAI O.O.M. first; ALS & FlexiFact O.O.M. at the top end; DisTenC and SCouT complete everything")
	fmt.Fprintf(w, "%-10s", "I=J=K")
	for _, m := range AllMethods {
		fmt.Fprintf(w, "%14s", m)
	}
	fmt.Fprintln(w)

	var all []Outcome
	for _, d := range dims {
		t := synth.ScalabilityTensor([]int{d, d, d}, nnz, p.Seed)
		opt := core.Options{Rank: rank, MaxIter: iters, Tol: 0, Seed: p.Seed}
		fmt.Fprintf(w, "%-10d", d)
		for _, m := range AllMethods {
			o := runMethod(p, m, p.Machines, t, nil, opt, false)
			all = append(all, o)
			fmt.Fprintf(w, "%14s", cell(o))
		}
		fmt.Fprintln(w)
	}
	return all
}

// Fig3b reproduces Figure 3b: running time versus the number of non-zero
// elements at fixed dimensionality. Everything but TFAI scales; ALS is the
// fastest per epoch, with DisTenC ahead of the MapReduce systems.
func Fig3b(w io.Writer, p Profile) []Outcome {
	p = p.withDefaults()
	dim := 10_000
	nnzs := []int{10_000, 30_000, 100_000, 300_000}
	rank, iters := 10, 3
	if p.Small {
		dim = 2_000
		nnzs = []int{2_000, 10_000, 30_000}
		iters = 2
	}
	header(w, "Figure 3b — runtime vs non-zeros",
		"all but TFAI scale; ALS fastest with the gap to DisTenC shrinking; DisTenC beats SCouT and FlexiFact")
	fmt.Fprintf(w, "%-10s", "nnz")
	for _, m := range AllMethods {
		fmt.Fprintf(w, "%14s", m)
	}
	fmt.Fprintln(w)

	var all []Outcome
	for _, nnz := range nnzs {
		t := synth.ScalabilityTensor([]int{dim, dim, dim}, nnz, p.Seed)
		opt := core.Options{Rank: rank, MaxIter: iters, Tol: 0, Seed: p.Seed}
		fmt.Fprintf(w, "%-10d", nnz)
		for _, m := range AllMethods {
			o := runMethod(p, m, p.Machines, t, nil, opt, false)
			all = append(all, o)
			fmt.Fprintf(w, "%14s", cell(o))
		}
		fmt.Fprintln(w)
	}
	return all
}

// Fig3c reproduces Figure 3c: running time versus rank. ALS's cost climbs
// fastest with rank (normal equations), DisTenC stays flattest thanks to the
// diagonal spectral inverse.
func Fig3c(w io.Writer, p Profile) []Outcome {
	p = p.withDefaults()
	dim, nnz, iters := 1_000, 100_000, 3
	ranks := []int{10, 50, 100, 200}
	if p.Small {
		dim, nnz, iters = 300, 10_000, 2
		ranks = []int{10, 30, 60}
	}
	header(w, "Figure 3c — runtime vs rank",
		"ALS grows fastest with rank; DisTenC has the flattest curve")
	fmt.Fprintf(w, "%-10s", "rank")
	for _, m := range AllMethods {
		fmt.Fprintf(w, "%14s", m)
	}
	fmt.Fprintln(w)

	t := synth.ScalabilityTensor([]int{dim, dim, dim}, nnz, p.Seed)
	// The rank sweep exercises the trace-regularized update too, so give
	// every mode a similarity (the paper's other sweeps use identity).
	sims := []*graph.Similarity{
		graph.TriDiagonal(dim), graph.TriDiagonal(dim), graph.TriDiagonal(dim),
	}
	var all []Outcome
	for _, r := range ranks {
		opt := core.Options{Rank: r, MaxIter: iters, Tol: 0, Seed: p.Seed, TruncK: 16}
		fmt.Fprintf(w, "%-10d", r)
		for _, m := range AllMethods {
			o := runMethod(p, m, p.Machines, t, sims, opt, false)
			all = append(all, o)
			fmt.Fprintf(w, "%14s", cell(o))
		}
		fmt.Fprintln(w)
	}
	return all
}

// Fig4 reproduces Figure 4: speedup T1/TM as machines scale from 1 to 8,
// for ALS, SCouT and DisTenC (the methods the paper compares). Times are the
// engine's critical-path SimulatedTime with serialized tasks, the honest
// measure on hosts with fewer cores than simulated machines (DESIGN.md §2).
func Fig4(w io.Writer, p Profile) map[Method][]float64 {
	p = p.withDefaults()
	// The sparse regime (dim ≥ nnz) keeps per-block distinct-row counts —
	// and hence map-side combine emissions — proportional to nnz/P, the
	// setting in which the paper's 4.9×-at-8-machines linearity holds (its
	// Fig. 4 tensor is 10⁵-dimensional).
	dim, nnz, rank, iters := 100_000, 200_000, 10, 6
	machines := []int{1, 2, 4, 6, 8}
	if p.Small {
		dim, nnz, iters = 10_000, 20_000, 2
		machines = []int{1, 2, 4}
	}
	header(w, "Figure 4 — machine scalability (speedup T1/TM)",
		"DisTenC near-linear (≈4.9× at M=8); SCouT flattens from disk I/O; ALS in between")
	t := synth.ScalabilityTensor([]int{dim, dim, dim}, nnz, p.Seed)
	opt := core.Options{Rank: rank, MaxIter: iters, Tol: 0, Seed: p.Seed}
	methods := []Method{MethodALS, MethodSCouT, MethodDisTenC}

	fmt.Fprintf(w, "%-10s", "machines")
	for _, m := range methods {
		fmt.Fprintf(w, "%14s", m)
	}
	fmt.Fprintln(w)

	// The critical path is a max over machines, so a single GC-stretched
	// task distorts it; the minimum over repetitions is the noise-free
	// estimate.
	const reps = 3
	speedups := map[Method][]float64{}
	base := map[Method]float64{}
	var phaseRows []string
	for _, mach := range machines {
		fmt.Fprintf(w, "%-10d", mach)
		for _, m := range methods {
			best := 0.0
			var bestOut Outcome
			status := StatusOK // of the last repetition that failed, if one did
			for rep := 0; rep < reps; rep++ {
				o := runMethod(p, m, mach, t, nil, opt, true)
				if o.Status != StatusOK {
					status = o.Status
					continue
				}
				if secs := o.Sim.Seconds(); secs > 0 && (best == 0 || secs < best) {
					best = secs
					bestOut = o
				}
			}
			if best > 0 && mach == machines[0] {
				base[m] = best
			}
			// A cell without a ratio says why; 0.00x would read as a measurement.
			var s float64
			switch {
			case best == 0:
				fmt.Fprintf(w, "%14s", status)
			case base[m] == 0:
				fmt.Fprintf(w, "%14s", "T1 failed")
			default:
				s = base[m] / best
				fmt.Fprintf(w, "%13.2fx", s)
			}
			speedups[m] = append(speedups[m], s)
			if m == MethodDisTenC && bestOut.Result != nil {
				tot := bestOut.Result.Phases.Totals()
				phaseRows = append(phaseRows, fmt.Sprintf(
					"  M=%d: mttkrp-map %v, mttkrp-reduce %v, gram %v, driver %v (of %v wall)",
					mach, tot.MTTKRPMap.Round(time.Millisecond),
					tot.MTTKRPReduce.Round(time.Millisecond),
					tot.Gram.Round(time.Millisecond),
					tot.Driver.Round(time.Millisecond),
					tot.Total.Round(time.Millisecond)))
			}
		}
		fmt.Fprintln(w)
	}
	// The speedup claim is only as good as its attribution: scaling must
	// come from the MTTKRP stages (Lemma 3's object) shrinking with M, not
	// from driver algebra hiding inside the ratio.
	fmt.Fprintln(w, "DisTenC phase totals (best rep):")
	for _, r := range phaseRows {
		fmt.Fprintln(w, r)
	}
	return speedups
}
