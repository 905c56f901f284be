package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
)

// Verdicts of -compare, one per (workload, end-to-end metric).
const (
	regressed  = "regressed"
	improved   = "improved"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// worse is by what share of a's value b is worse (negative: better).
func worse(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// judge compares baseline a with candidate b. When either side's samples
// spread wider than the bound the two values prove nothing: the verdict is
// unresolved unless every sample of one side beats every sample of the
// other.
func judge(d metricDef, a, b Metric) string {
	if d.name == errorRate {
		switch {
		case b.Value > a.Value:
			return regressed
		case b.Value < a.Value:
			return improved
		}
		return unchanged
	}
	if max(spread(a.Samples), spread(b.Samples)) > d.bound {
		lo, hi := a.Samples, b.Samples // is every b above every a?
		if d.better == "higher" {
			lo, hi = hi, lo
		}
		switch {
		case slices.Max(lo) < slices.Min(hi):
			return regressed
		case slices.Max(hi) < slices.Min(lo):
			return improved
		}
		return unresolved
	}
	switch w := worse(d, a.Value, b.Value); {
	case w > d.bound:
		return regressed
	case w < -d.bound:
		return improved
	}
	return unchanged
}

// compareFiles prints one row per (workload, end-to-end metric) of two suite
// files and fails on any regression, error_rate included.
func compareFiles(w io.Writer, paths []string) error {
	if len(paths) != 2 {
		return errors.New("-compare takes two suite files: baseline candidate")
	}
	a, err := readSuite(paths[0])
	if err != nil {
		return err
	}
	b, err := readSuite(paths[1])
	if err != nil {
		return err
	}
	if n := compareSuites(w, a, b); n > 0 {
		return fmt.Errorf("%d regression(s)", n)
	}
	return nil
}

func compareSuites(w io.Writer, a, b *suite) (regressions int) {
	fmt.Fprintf(w, "%-16s %-28s %12s %25s %12s %25s %7s  %s\n",
		"workload", "metric", "A value", "A q1..q3", "B value", "B q1..q3", "bound", "verdict")
	for _, wl := range workloads {
		ra, rb := a.record(wl.name), b.record(wl.name)
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "%-16s missing from one side\n", wl.name)
			regressions++
			continue
		}
		for _, d := range declared(false) {
			ma, mb := ra.Metrics[d.name], rb.Metrics[d.name]
			v := judge(d, ma, mb)
			if v == regressed {
				regressions++
			}
			fmt.Fprintf(w, "%-16s %-28s %12.6g %25s %12.6g %25s %6.1f%%  %s\n", wl.name, d.name,
				ma.Value, fmt.Sprintf("%.5g..%.5g", ma.Q1, ma.Q3), mb.Value, fmt.Sprintf("%.5g..%.5g", mb.Q1, mb.Q3), 100*d.bound, v)
		}
	}
	return regressions
}

// calibration is one (workload, metric) row of -calibrate: two runs of the
// same commit, how far apart their values fell, and how widely each run's
// samples spread — the evidence behind each bound in BENCHMARK.json.
type calibration struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	A        float64 `json:"a"`
	B        float64 `json:"b"`
	Diff     float64 `json:"diff"`
	SpreadA  float64 `json:"spread_a"`
	SpreadB  float64 `json:"spread_b"`
	Bound    float64 `json:"bound"`
	Verdict  string  `json:"verdict"`
}

// runCalibrate runs the suite twice on this commit and fails if any gated
// metric's two values differ by more than its bound; a metric whose samples
// spread wider than its bound is flagged noisy (-compare would call it
// unresolved) — the candidates for a wider bound or for demotion to the
// per-layer list.
func runCalibrate(w io.Writer, cfg runConfig) error {
	cfg.trace = false
	var runs [2]*suite
	for i := range runs {
		s, err := runSuite(io.Discard, cfg)
		if err != nil {
			return err
		}
		runs[i] = s
	}
	var rows []calibration
	failed := 0
	fmt.Fprintf(w, "%-16s %-28s %12s %12s %8s %8s %8s %7s  %s\n", "workload", "metric", "A", "B", "diff", "spreadA", "spreadB", "bound", "verdict")
	for _, wl := range workloads {
		ra, rb := runs[0].record(wl.name), runs[1].record(wl.name)
		for _, d := range endToEnd {
			ma, mb := ra.Metrics[d.name], rb.Metrics[d.name]
			row := calibration{Workload: wl.name, Metric: d.name, A: ma.Value, B: mb.Value,
				SpreadA: spread(ma.Samples), SpreadB: spread(mb.Samples), Bound: d.bound, Verdict: "ok"}
			if ma.Value != 0 {
				row.Diff = (mb.Value - ma.Value) / ma.Value
			}
			switch {
			case max(row.Diff, -row.Diff) > d.bound:
				row.Verdict = "FAIL: values differ by more than the bound"
				failed++
			case max(row.SpreadA, row.SpreadB) > d.bound:
				row.Verdict = "noisy"
			}
			rows = append(rows, row)
			fmt.Fprintf(w, "%-16s %-28s %12.6g %12.6g %7.2f%% %7.2f%% %7.2f%% %6.1f%%  %s\n", row.Workload, row.Metric,
				row.A, row.B, 100*row.Diff, 100*row.SpreadA, 100*row.SpreadB, 100*row.Bound, row.Verdict)
		}
	}
	path := filepath.Join(cfg.outDir, "calibration.json")
	data, err := json.MarshalIndent(rows, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintln(w, "wrote", path)
	if failed > 0 {
		return fmt.Errorf("%d gated metric(s) moved by more than their bound between two runs of the same code", failed)
	}
	return nil
}
