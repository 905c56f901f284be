package core

import (
	"testing"

	"distenc/internal/sptensor"
	"distenc/internal/synth"
)

// partialRowStats measures, per mode, what the MTTKRP shuffle has to combine
// under layout l: emitted[n] = Σₚ|neededRows[p][n]| is the number of partial
// H_n rows the P map tasks send in one iteration, distinct[n] the number of
// H_n rows that exist to receive them. emitted/distinct is the fan-in per
// output row: 1 when every row is produced by a single block (nothing left
// for a combiner to merge), P when every block touches every row — the
// M·I·R-per-mode worst case Lemma 3 charges.
func partialRowStats(l *Layout) (emitted, distinct []int) {
	emitted, distinct = make([]int, l.order), make([]int, l.order)
	for n := 0; n < l.order; n++ {
		seen := make([]bool, l.dims[n])
		for p := 0; p < l.parts; p++ {
			emitted[n] += len(l.neededRows[p][n])
			for _, row := range l.neededRows[p][n] {
				if !seen[row] {
					seen[row] = true
					distinct[n]++
				}
			}
		}
	}
	return emitted, distinct
}

// TestPartialRowsPerOutputRow pins the bounds of the fan-in measure and, run
// with -v (not -short), prints it for the four solve workloads of
// BENCHMARK.json at full size — the table in EXPERIMENTS.md ("Shuffle
// fan-in") comes from this test.
func TestPartialRowsPerOutputRow(t *testing.T) {
	layout := func(tn *sptensor.Tensor, rank, parts int, grid bool) *Layout {
		opt := DistOptions{Options: Options{Rank: rank}, Partitions: parts, GridPartition: grid}
		opt.Options = opt.Options.withDefaults()
		return NewLayout(tn, opt)
	}

	small := synth.LinearFactorDataset([]int{60, 50, 40}, 3, 8_000, 5).Tensor
	for _, grid := range []bool{false, true} {
		l := layout(small, 4, 4, grid)
		emitted, distinct := partialRowStats(l)
		for n := range emitted {
			if distinct[n] == 0 || emitted[n] < distinct[n] || emitted[n] > l.parts*distinct[n] {
				t.Errorf("grid=%v mode %d: %d partial rows for %d output rows, outside [1, P=%d] per row",
					grid, n, emitted[n], distinct[n], l.parts)
			}
		}
		// Blocks split on mode 0 alone own their mode-0 rows outright.
		if !grid && emitted[0] != distinct[0] {
			t.Errorf("mode-0 blocking: %d partial rows for %d mode-0 output rows, want one each", emitted[0], distinct[0])
		}
	}

	if testing.Short() {
		return
	}
	facebook := func(users, nnz int) *sptensor.Tensor {
		return synth.FacebookSim(synth.LinkPredConfig{Users: users, Days: 5, Rank: 5, NNZ: nnz, Noise: 0.05, Seed: 1}).Tensor
	}
	t.Logf("%-16s %-7s %-4s %10s %10s %8s %12s", "workload", "blocks", "mode", "emitted", "distinct", "fan-in", "of Lemma 3")
	for _, w := range []struct {
		name        string
		tensor      *sptensor.Tensor
		rank, parts int
	}{
		{"solve-scatter", synth.ScalabilityTensor([]int{15_000, 15_000, 15_000}, 500_000, 1), 10, 4},
		{"solve-fiber", facebook(12_000, 600_000), 10, 4},
		{"solve-highdim", facebook(25_000, 150_000), 16, 4},
		{"solve-tcp-small", synth.ScalabilityTensor([]int{2000, 2000, 2000}, 20_000, 1), 10, 8},
	} {
		for _, grid := range []bool{true, false} {
			blocks := "mode-0"
			if grid {
				blocks = "grid" // what the benchmark runs
			}
			l := layout(w.tensor, w.rank, w.parts, grid)
			emitted, distinct := partialRowStats(l)
			for n := range emitted {
				t.Logf("%-16s %-7s %-4d %10d %10d %8.2f %11.0f%%", w.name, blocks, n, emitted[n], distinct[n],
					float64(emitted[n])/float64(distinct[n]), 100*float64(emitted[n])/float64(l.parts*l.dims[n]))
			}
		}
	}
}
