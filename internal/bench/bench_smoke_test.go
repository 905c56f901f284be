package bench

import (
	"io"
	"strings"
	"testing"
)

// The smoke tests run every experiment driver at the small profile and check
// that the paper's qualitative shapes come out. They double as integration
// tests of the entire stack (engine + algorithms + generators).

func smallProfile() Profile { return Profile{Small: true, Seed: 3} }

func TestFig3aShape(t *testing.T) {
	var sb strings.Builder
	outcomes := Fig3a(&sb, smallProfile())
	if len(outcomes) == 0 {
		t.Fatal("no outcomes")
	}
	// DisTenC and SCouT must complete every size; TFAI must OOM at the top.
	var tfaiOOM bool
	for _, o := range outcomes {
		switch o.Method {
		case MethodDisTenC, MethodSCouT:
			if o.Status != StatusOK {
				t.Fatalf("%s failed: %s", o.Method, o.Status)
			}
		case MethodTFAI:
			if o.Status == StatusOOM {
				tfaiOOM = true
			}
		}
	}
	if !tfaiOOM {
		t.Fatal("TFAI never hit the memory budget — Figure 3a shape missing")
	}
	if !strings.Contains(sb.String(), "Figure 3a") {
		t.Fatal("missing banner")
	}
}

func TestFig3bShape(t *testing.T) {
	var sb strings.Builder
	outcomes := Fig3b(&sb, smallProfile())
	for _, o := range outcomes {
		if o.Method == MethodDisTenC && o.Status != StatusOK {
			t.Fatalf("DisTenC failed: %s", o.Status)
		}
	}
}

func TestFig3cShape(t *testing.T) {
	var sb strings.Builder
	outcomes := Fig3c(&sb, smallProfile())
	ok := 0
	for _, o := range outcomes {
		if o.Status == StatusOK {
			ok++
		}
	}
	if ok == 0 {
		t.Fatal("no successful rank-sweep runs")
	}
}

func TestFig4SpeedupGrows(t *testing.T) {
	if testing.Short() {
		t.Skip("machine-scalability sweep is slow under -race")
	}
	// The speedup is a ratio of wall-clock-derived critical-path times, and
	// host interference (other test packages running in parallel under
	// `go test ./...`) slows the multi-machine run more than the serial
	// baseline — it competes for the same cores — so a loaded host skews the
	// measurement low, never high. The max over a few attempts is therefore
	// the noise-robust estimate; a genuine scalability regression fails all
	// of them.
	const attempts = 3
	var d []float64
	for i := 0; i < attempts; i++ {
		var sb strings.Builder
		speedups := Fig4(&sb, smallProfile())
		d = speedups[MethodDisTenC]
		if len(d) < 3 {
			t.Fatalf("speedups = %v", d)
		}
		// A method that failed prints its status; a zero ratio in the table
		// is a failure passed off as a measurement.
		if strings.Contains(sb.String(), " 0.00x") {
			t.Fatalf("Fig. 4 prints a zero speedup:\n%s", sb.String())
		}
		if d[len(d)-1] > d[0] && d[len(d)-1] >= 1.5 {
			return
		}
		t.Logf("attempt %d/%d: DisTenC speedups %v (want growth and >= 1.5 at max machines)", i+1, attempts, d)
	}
	if d[len(d)-1] <= d[0] {
		t.Fatalf("DisTenC speedup did not grow with machines: %v", d)
	}
	t.Fatalf("DisTenC speedup at max machines too low after %d attempts: %v", attempts, d)
}

func TestFig5AuxMethodsWin(t *testing.T) {
	if testing.Short() {
		t.Skip("missing-rate accuracy sweep is slow under -race")
	}
	var sb strings.Builder
	errs := Fig5(&sb, smallProfile())
	for i := range errs[MethodDisTenC] {
		if errs[MethodDisTenC][i] >= errs[MethodALS][i] {
			t.Fatalf("missing-rate row %d: DisTenC %.4f not better than ALS %.4f",
				i, errs[MethodDisTenC][i], errs[MethodALS][i])
		}
	}
}

func TestFig6aDisTenCWins(t *testing.T) {
	if testing.Short() {
		t.Skip("recommender RMSE runs are slow under -race")
	}
	var sb strings.Builder
	out := Fig6a(&sb, smallProfile())
	for ds, rmse := range out {
		if rmse[MethodDisTenC] >= rmse[MethodALS] {
			t.Fatalf("%s: DisTenC %.4f not better than ALS %.4f", ds, rmse[MethodDisTenC], rmse[MethodALS])
		}
	}
}

func TestFig6bTraces(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence traces are slow under -race")
	}
	var sb strings.Builder
	traces := Fig6b(&sb, smallProfile())
	tr, ok := traces[MethodDisTenC]
	if !ok || len(tr) == 0 {
		t.Fatal("no DisTenC trace")
	}
	first, last := tr[0].TrainRMSE, tr[len(tr)-1].TrainRMSE
	if last >= first {
		t.Fatalf("DisTenC trace not decreasing: %v -> %v", first, last)
	}
}

func TestFig7LinkPrediction(t *testing.T) {
	if testing.Short() {
		t.Skip("link-prediction runs are slow under -race")
	}
	var sb strings.Builder
	out := Fig7(&sb, smallProfile())
	if out[MethodDisTenC] >= out[MethodALS] {
		t.Fatalf("DisTenC %.4f not better than ALS %.4f", out[MethodDisTenC], out[MethodALS])
	}
}

func TestTableII(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation is slow under -race")
	}
	var sb strings.Builder
	sets := TableII(io.Discard, smallProfile())
	if len(sets) != 4 {
		t.Fatalf("datasets = %d", len(sets))
	}
	_ = sb
}

func TestTableIIIConceptPurity(t *testing.T) {
	var sb strings.Builder
	rows := TableIII(&sb, smallProfile())
	if len(rows) == 0 {
		t.Fatal("no concept rows")
	}
	var sum float64
	for _, r := range rows {
		sum += r.VenuePurity
	}
	if avg := sum / float64(len(rows)); avg < 0.5 {
		t.Fatalf("average venue purity %.2f too low — concepts not recovered", avg)
	}
}

func TestLemmas(t *testing.T) {
	var sb strings.Builder
	rows := Lemmas(&sb, smallProfile())
	if len(rows) < 3 {
		t.Fatalf("lemma rows = %d", len(rows))
	}
	// Doubling nnz (row 0 -> 1) must grow both the measured shuffle bytes
	// and the analytic bound.
	if rows[1].BytesShuffled <= rows[0].BytesShuffled {
		t.Fatalf("shuffled bytes did not grow with nnz: %d vs %d", rows[0].BytesShuffled, rows[1].BytesShuffled)
	}
	if rows[1].ShuffleBound <= rows[0].ShuffleBound {
		t.Fatal("analytic bound did not grow with nnz")
	}
	// Doubling rank (row 1 -> 2) must grow the FLOP bound.
	if rows[2].FlopBound <= rows[1].FlopBound {
		t.Fatal("FLOP bound did not grow with rank")
	}
}

func TestAblationsAllWin(t *testing.T) {
	var sb strings.Builder
	results := Ablations(&sb, smallProfile())
	if len(results) < 6 {
		t.Fatalf("ablations = %d, want 6", len(results))
	}
	for _, a := range results {
		if a.OptimizedImbalance > 0 {
			// A3's deterministic claim is load balance; at smoke scale its
			// wall-clock difference is noise.
			if a.OptimizedImbalance >= a.NaiveImbalance {
				t.Fatalf("%s: greedy imbalance %.2f not better than uniform %.2f",
					a.ID, a.OptimizedImbalance, a.NaiveImbalance)
			}
			continue
		}
		if a.Speedup() < 0.9 { // allow noise but the optimized path must not lose badly
			t.Fatalf("%s: optimized path slower than naive (%.2fx)", a.ID, a.Speedup())
		}
	}
}

func TestPurityHelper(t *testing.T) {
	if p := purity([]int{0, 1, 2}, []int{5, 5, 7}); p < 0.66 || p > 0.67 {
		t.Fatalf("purity = %v", p)
	}
	if purity(nil, nil) != 0 {
		t.Fatal("empty purity")
	}
}
