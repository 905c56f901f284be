package main

import (
	"fmt"
	"math"
	"slices"
)

// Metric is one named measurement of a run. Value is the median of Samples
// (one sample per repeat) — or, for the end-to-end wall-clock metrics, the
// best of them (putBest); Q1/Q3 are their quartiles as Python's
// statistics.quantiles(n=4) computes them. Timings that pool many individual
// observations (iterations, requests) also carry the pooled count N and the
// tail: the highest percentile that still has at least ten observations
// beyond it.
type Metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Samples []float64 `json:"samples"`
	N       int       `json:"n,omitempty"`
	TailP   float64   `json:"tail_p,omitempty"`
	Tail    float64   `json:"tail,omitempty"`
}

// Record is what one workload run reports: the child process prints it as
// its last stdout line and suite files hold one per workload.
type Record struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Trace     bool              `json:"trace"`
	Quick     bool              `json:"quick,omitempty"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	Metrics   map[string]Metric `json:"metrics"`
	// TensorHash and FactorHash are FNV-64a digests of the solve stage's
	// input tensor and of repeat 1's factor matrices (Float64bits).
	TensorHash string `json:"tensor_hash"`
	FactorHash string `json:"factor_hash"`
	// Sizes records the inputs actually run (dims, nnz, model bytes, …).
	Sizes map[string]any `json:"sizes"`
	Env   Env            `json:"env"`
}

// Env is the machine a record was measured on.
type Env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func (r *Record) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// put records a metric from its per-repeat samples.
func (r *Record) put(name, unit string, samples ...float64) {
	m := Metric{Unit: unit, Samples: samples}
	if len(samples) > 0 {
		m.Value = median(samples)
		m.Q1, m.Q3 = quartiles(samples)
	}
	r.Metrics[name] = m
}

// putBest records an end-to-end wall-clock metric: its value is the best
// sample (the lowest, or the highest when higher is better), not the median.
// The container shares its host: for seconds at a stretch the same code runs
// a third slower, and the median of a run's samples lands in whichever state
// covered most of the run. Interference only ever slows a sample down, so the
// best one estimates what the code costs undisturbed and is steady as long as
// one sample of the run escaped (README, "Slow phases of the host"). Samples
// and quartiles are kept: -compare judges by them.
func (r *Record) putBest(name, unit string, higher bool, samples ...float64) {
	r.put(name, unit, samples...)
	if len(samples) == 0 {
		return
	}
	m := r.Metrics[name]
	m.Value = slices.Min(samples)
	if higher {
		m.Value = slices.Max(samples)
	}
	r.Metrics[name] = m
}

// putPooled is putBest for a lower-is-better timing, plus the pooled
// observations behind the samples, for the count and the tail percentile.
func (r *Record) putPooled(name, unit string, samples, pooled []float64) {
	r.putBest(name, unit, false, samples...)
	m := r.Metrics[name]
	m.N = len(pooled)
	m.TailP, m.Tail = tail(pooled)
	r.Metrics[name] = m
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method) does, so
// the spreads printed here are the ones the driver computes. A single sample
// is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	if m := median(xs); m != 0 {
		return (q3 - q1) / math.Abs(m)
	}
	return 0
}

// percentile returns the p-th percentile (nearest rank) of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// tail returns the highest of the usual percentiles that still has at least
// ten observations beyond it, and its value; (0, 0) below twenty
// observations, where not even the median qualifies.
func tail(xs []float64) (p, v float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	for _, c := range []float64{99.99, 99.9, 99, 95, 90, 75, 50} {
		if float64(len(s))*(1-c/100) >= 10 {
			return c, percentile(s, c)
		}
	}
	return 0, 0
}
