package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"distenc/internal/core"
	"distenc/internal/transport"
)

// The measured subprocess and the TCP workers are this test binary re-exec'd.
func TestMain(m *testing.M) {
	transport.WorkerHook()
	childHook()
	os.Exit(m.Run())
}

func quickConfig(t *testing.T, seed uint64, trace bool) runConfig {
	return runConfig{seed: seed, seconds: 0.5, trace: trace, quick: true, outDir: t.TempDir()}
}

// Every workload, untraced and traced, at 1/50 scale: every declared metric
// is reported under a well-formed name with its unit, nothing fails, every
// output check passes, and the two runs of a seed agree on both hashes.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel() // nothing here asserts a time
			var hashes [2][2]string
			for i, trace := range []bool{false, true} {
				rec, err := runWorkload(w.name, quickConfig(t, 1, trace))
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range declared(trace) {
					m, ok := rec.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("trace=%v: %s not reported", trace, d.name)
					case !nameRE.MatchString(d.name):
						t.Errorf("metric name %q is malformed", d.name)
					case m.Unit == "" || m.Unit != d.unit:
						t.Errorf("trace=%v: %s has unit %q, declared %q", trace, d.name, m.Unit, d.unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("trace=%v: %s = %v", trace, d.name, m.Value)
					}
				}
				if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 || rec.Metrics[errorRate].Value != 0 {
					t.Errorf("trace=%v: correct=%v failed=%d/%d problems=%v", trace, rec.Correct, rec.Failed, rec.Attempted, rec.Problems)
				}
				hashes[i] = [2]string{rec.TensorHash, rec.FactorHash}
			}
			if hashes[0] != hashes[1] {
				t.Errorf("same seed, different hashes: %v vs %v", hashes[0], hashes[1])
			}
		})
	}
}

// A different seed gives different inputs and different factors; a traced run
// leaves one Chrome-trace file whose spans all carry ids, parents and a run.
func TestSeedAndTraceFile(t *testing.T) {
	t.Parallel()
	cfg := quickConfig(t, 1, true)
	a, err := runWorkload("solve-fiber", cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runWorkload("solve-fiber", quickConfig(t, 2, false))
	if err != nil {
		t.Fatal(err)
	}
	if a.TensorHash == b.TensorHash || a.FactorHash == b.FactorHash {
		t.Errorf("seeds 1 and 2 share a hash: %s/%s vs %s/%s", a.TensorHash, a.FactorHash, b.TensorHash, b.FactorHash)
	}
	data, err := os.ReadFile(filepath.Join(cfg.outDir, "trace-solve-fiber.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string
			Dur  float64
			Args struct{ ID, Parent, Run *int }
		}
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, e := range file.TraceEvents {
		names[e.Name] = true
		if e.Args.ID == nil || e.Args.Parent == nil || e.Args.Run == nil || e.Dur < 0 {
			t.Fatalf("span %q lacks id/parent/run or has a negative duration", e.Name)
		}
	}
	for _, want := range []string{"run", "setup", "distenc.ReadBinary", "rdd.NewCluster", "part.Greedy", "core.NewLayout",
		"graph.TruncatedSpectral", "solve", "iteration 0", "mttkrp-map", "driver", "serve.LoadModel", "serve.NewServer", "probes", "core.Complete"} {
		if !names[want] {
			t.Errorf("trace has no %q span", want)
		}
	}
}

// The DTCK image the benchmark writes is the format core.ReadCheckpoint
// reads, bit for bit.
func TestCheckpointRoundTrip(t *testing.T) {
	factors := seededFactors([]int{7, 5, 3}, 4, 9)
	aux := seededFactors([]int{7, 5, 3}, 4, 10)
	path := filepath.Join(t.TempDir(), modelFile)
	if err := writeCheckpoint(path, factors, aux); err != nil {
		t.Fatal(err)
	}
	ck, err := core.ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if hashFactors(ck.Factors) != hashFactors(factors) || hashFactors(ck.Aux) != hashFactors(aux) {
		t.Error("factors or auxiliaries changed in the round trip")
	}
	for _, d := range ck.Duals {
		for _, v := range d.Data() {
			if v != 0 {
				t.Fatal("multipliers are not zero")
			}
		}
	}
}

// BENCHMARK.json and the program declare the same workloads and metrics.
//
//distenc:floatcmp-ok -- both bounds are parsed from the same decimal literal
func TestBenchmarkJSONAgrees(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var file struct {
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Paths) != 1 || file.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", file.Paths)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, program has %d", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, program has %q", i, file.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics declared, program has %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, program has %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEnd)
	same("per_layer", file.PerLayer, perLayer)
}

// quartiles must be Python's statistics.quantiles(n=4), which the driver
// uses for its spreads.
//
//distenc:floatcmp-ok -- the expected quartiles are exact in binary
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{5, 1, 4, 2, 3, 10, 7, 8, 9, 6}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if p, _ := tail(make([]float64, 150)); p != 90 {
		t.Errorf("tail of 150 observations is p%v, want p90 (15 beyond it, p95 has 7.5)", p)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{name: "iter_ms", better: "lower", bound: 0.10}
	m := func(xs ...float64) Metric {
		q1, q3 := quartiles(xs)
		return Metric{Value: median(xs), Q1: q1, Q3: q3, Samples: xs}
	}
	for _, c := range []struct {
		name string
		a, b Metric
		want string
	}{
		{"steady and 20% slower", m(100, 101, 99, 100, 100), m(120, 121, 119, 120, 120), regressed},
		{"steady and 20% faster", m(100, 101, 99, 100, 100), m(80, 81, 79, 80, 80), improved},
		{"steady and 3% slower", m(100, 101, 99, 100, 100), m(103, 104, 102, 103, 103), unchanged},
		{"noisy and overlapping", m(100, 140, 80, 120, 90), m(110, 150, 85, 130, 95), unresolved},
		{"noisy but every run slower", m(100, 140, 80, 120, 90), m(200, 280, 160, 240, 180), regressed},
	} {
		if got := judge(lower, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	if got := judge(metricDef{name: errorRate}, m(0), m(0.01)); got != regressed {
		t.Errorf("higher error_rate: %s, want %s", got, regressed)
	}
	if n := compareSuites(io.Discard, &suite{}, &suite{}); n != len(workloads) {
		t.Errorf("comparing empty suites reports %d problems, want one per workload", n)
	}
}
