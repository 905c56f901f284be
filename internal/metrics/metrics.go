// Package metrics implements the evaluation measures the paper reports:
// RMSE over held-out observations (§IV-E), relative reconstruction error
// (§IV-D), and the per-iteration convergence traces behind Figures 6b and 7b.
package metrics

import (
	"fmt"
	"math"
	"time"

	"distenc/internal/sptensor"
)

// RMSE is √(‖Ω∗(T−X)‖²_F / nnz(T)) evaluated over the entries of test
// against the Kruskal model (the paper's recommender-system metric). The sum
// runs in storage order over Kruskal.AtEntries' predictions.
func RMSE(test *sptensor.Tensor, model *sptensor.Kruskal) float64 {
	if test.NNZ() == 0 {
		return 0
	}
	var s float64
	model.AtEntries(test, func(e0 int, preds []float64) {
		obs := test.Val[e0 : e0+len(preds)]
		for i, p := range preds {
			d := obs[i] - p
			s += d * d
		}
	})
	return math.Sqrt(s / float64(test.NNZ()))
}

// RelativeError is ‖X−Y‖_F/‖Y‖_F over the entries of truth (the paper's
// reconstruction-error metric, §IV-D), summed as RMSE is.
func RelativeError(truth *sptensor.Tensor, model *sptensor.Kruskal) float64 {
	var num, den float64
	model.AtEntries(truth, func(e0 int, preds []float64) {
		obs := truth.Val[e0 : e0+len(preds)]
		for i, p := range preds {
			y := obs[i]
			d := y - p
			num += d * d
			den += y * y
		}
	})
	if den == 0 {
		return 0
	}
	return math.Sqrt(num / den)
}

// ConvergencePoint is one sample of a training trace.
type ConvergencePoint struct {
	Iter      int
	Elapsed   time.Duration
	TrainRMSE float64
	// MaxDelta is the convergence criterion value max_n ‖A_{t+1}−A_t‖²_F.
	MaxDelta float64
}

// Trace is an in-order training trace (Figures 6b, 7b).
type Trace []ConvergencePoint

// Final returns the last point; ok is false for an empty trace.
func (t Trace) Final() (ConvergencePoint, bool) {
	if len(t) == 0 {
		return ConvergencePoint{}, false
	}
	return t[len(t)-1], true
}

// TimeToReach returns the first elapsed time at which the training RMSE
// drops to target or below, and whether it ever does — the "convergence
// rate" comparison of Figure 6b.
func (t Trace) TimeToReach(target float64) (time.Duration, bool) {
	for _, p := range t {
		if p.TrainRMSE <= target {
			return p.Elapsed, true
		}
	}
	return 0, false
}

// String renders a compact table of the trace.
func (t Trace) String() string {
	out := ""
	for _, p := range t {
		out += fmt.Sprintf("iter=%3d t=%8.3fs rmse=%.6f delta=%.3g\n",
			p.Iter, p.Elapsed.Seconds(), p.TrainRMSE, p.MaxDelta)
	}
	return out
}

// PhaseTimes decomposes one solver iteration into its phases: the
// distributed MTTKRP map (fused residual+partials kernel) and reduce stages,
// and the driver-side dense algebra (B-steps, Eq. 16 solves, Y/η bookkeeping
// and the Gram products, one pass per mode) that stage logs cannot see. The
// serial solver fills the same struct (MTTKRPReduce = 0, the kernel time in
// MTTKRPMap) so serial and distributed runs are phase-comparable. Total is
// the full iteration wall clock; Total minus the named phases is scheduling,
// assembly and checkpoint overhead.
type PhaseTimes struct {
	Iter         int
	MTTKRPMap    time.Duration
	MTTKRPReduce time.Duration
	// Gram is always zero: the Grams are accumulated inside the driver pass
	// and counted in Driver. The field stays only because benchmark/ reads
	// it (ROADMAP item 2).
	Gram          time.Duration
	Driver        time.Duration
	Total         time.Duration
	BytesShuffled int64
}

// PhaseBreakdown is the per-iteration phase record of a run.
type PhaseBreakdown []PhaseTimes

// Totals sums the breakdown across iterations (Iter is the iteration count).
func (p PhaseBreakdown) Totals() PhaseTimes {
	var t PhaseTimes
	t.Iter = len(p)
	for _, x := range p {
		t.MTTKRPMap += x.MTTKRPMap
		t.MTTKRPReduce += x.MTTKRPReduce
		t.Driver += x.Driver
		t.Total += x.Total
		t.BytesShuffled += x.BytesShuffled
	}
	return t
}

// String renders the per-iteration phase table plus a totals row.
func (p PhaseBreakdown) String() string {
	if len(p) == 0 {
		return ""
	}
	out := fmt.Sprintf("%-6s %12s %12s %12s %12s %12s\n",
		"iter", "mttkrp-map", "mttkrp-red", "driver", "total", "shuffledB")
	row := func(label string, x PhaseTimes) string {
		return fmt.Sprintf("%-6s %12s %12s %12s %12s %12d\n",
			label, round(x.MTTKRPMap), round(x.MTTKRPReduce),
			round(x.Driver), round(x.Total), x.BytesShuffled)
	}
	for _, x := range p {
		out += row(fmt.Sprint(x.Iter), x)
	}
	out += row("TOTAL", p.Totals())
	return out
}

func round(d time.Duration) time.Duration {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond)
	default:
		return d.Round(time.Microsecond)
	}
}

// MeanStd returns the mean and (population) standard deviation of xs —
// experiments report 5-run averages as the paper does.
func MeanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(std / float64(len(xs)))
}

// Improvement returns the percentage by which got improves on base for a
// lower-is-better metric — the "average improvement of 23.5%" accounting.
func Improvement(base, got float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (base - got) / base
}
