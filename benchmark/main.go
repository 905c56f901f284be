// Command benchmark is the repository's end-to-end benchmark: six named
// workloads over the solve path (read → partition → ADMM iterations on the
// rdd engine, in-process or over TCP workers) and the predict path (load →
// serve → answer), ten end-to-end metrics, and a per-layer ledger measured
// from outside the program. README.md explains the workloads and metrics;
// ../BENCHMARK.json declares them to the PR driver.
//
//	go run -C benchmark . -workload solve-fiber -seed 3   one workload; last stdout line is the result
//	go run -C benchmark . -seed 1                         all six, table + out/suite-seed1.json
//	go run -C benchmark . -trace 1                        per-layer ledger + out/trace-<workload>.json
//	go run -C benchmark . -compare A.json B.json          verdict per (workload, metric); exit 1 on regression
//	go run -C benchmark . -calibrate                      suite twice on this commit: the A/A spread
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"

	"distenc/internal/transport"
)

// outDir holds everything the benchmark writes: generated inputs (removed
// after each run), trace files, suite and calibration records.
const outDir = "out"

func main() {
	transport.WorkerHook() // the tcp workload's workers are this binary, re-exec'd
	childHook()            // so is the measured subprocess

	var (
		name      = flag.String("workload", "", "run this workload and print the result line; empty runs all six")
		seed      = flag.Uint64("seed", 1, "input seed: same seed, same inputs")
		seconds   = flag.Float64("seconds", 15, "measuring time per run (sizes the serve windows; solves are fixed work sized for 15)")
		trace     = flag.Int("trace", 0, "1 = traced run: per-layer metrics, spans to out/trace-<workload>.json")
		quick     = flag.Bool("quick", false, "1/50-scale inputs, for the smoke test")
		out       = flag.String("out", "", "suite mode: where to write the records (default out/suite-seed<seed>.json)")
		doCompare = flag.Bool("compare", false, "compare two suite files given as arguments")
		calibrate = flag.Bool("calibrate", false, "run the suite twice and report the A/A spread per metric")
	)
	flag.Parse()
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace != 0, quick: *quick, outDir: outDir}

	var err error
	switch {
	case *doCompare:
		err = compareFiles(os.Stdout, flag.Args())
	case *calibrate:
		err = runCalibrate(os.Stdout, cfg)
	case *name != "":
		err = runOne(os.Stdout, *name, cfg)
	default:
		path := *out
		if path == "" {
			path = filepath.Join(outDir, fmt.Sprintf("suite-seed%d.json", *seed))
		}
		var s *suite
		if s, err = runSuite(os.Stdout, cfg); err == nil {
			err = s.write(path)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// childGOMAXPROCS pins the measured subprocess (and the TCP workers it
// spawns, each a process of its own) to one scheduler thread. The reference
// container's two vCPUs share a physical core part of the time: a two-thread
// kernel alternates between 24 and 46 ms for seconds at a stretch, one thread
// stays within 20-22 ms. On two threads every wall-clock metric spread 10-30%
// between runs of the same code; on one, 2-7% (16% in a slow phase of the host). What is timed is therefore the
// program's total CPU work plus its waits — what a code change can move — and
// not the parallel speed-up, which here depends on the host's scheduler;
// rdd.map_skew still reports task imbalance.
const childGOMAXPROCS = "1"

type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	quick   bool
	outDir  string
}

// runWorkload generates the workload's inputs from the seed, runs it in a
// subprocess of this binary, and returns what it measured.
func runWorkload(name string, cfg runConfig) (*Record, error) {
	w, err := findWorkload(name)
	if err != nil {
		return nil, err
	}
	if cfg.quick {
		w = w.quick()
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.outDir, name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	dir, err = filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	tmp := filepath.Join(dir, "tmp")
	if err := os.Mkdir(tmp, 0o755); err != nil {
		return nil, err
	}
	if err := writeInputs(w, cfg.seed, dir); err != nil {
		return nil, err
	}

	spec, err := json.Marshal(job{Workload: name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Quick: cfg.quick, Dir: dir})
	if err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	// TMPDIR keeps the worker processes' scratch directories inside outDir.
	cmd.Env = append(os.Environ(), jobEnv+"="+string(spec), "TMPDIR="+tmp, "GOMAXPROCS="+childGOMAXPROCS)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: measured subprocess: %w", name, err)
	}
	rec := &Record{}
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), rec); err != nil {
		return nil, fmt.Errorf("%s: reading the subprocess's record: %w", name, err)
	}
	return rec, nil
}

// declared is the metric list a run of the given kind must report.
func declared(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return append(endToEnd[:len(endToEnd):len(endToEnd)], metricDef{name: errorRate, unit: "fraction", better: "lower"})
}

// printRecord prints every declared metric of rec by name, with its unit.
func printRecord(w io.Writer, rec *Record) {
	fmt.Fprintf(w, "== %s  seed=%d trace=%v correct=%v attempted=%d failed=%d  tensor=%s factors=%s\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Correct, rec.Attempted, rec.Failed, rec.TensorHash, rec.FactorHash)
	fmt.Fprintf(w, "   nproc=%d GOMAXPROCS=%d %s  sizes=%v\n", rec.Env.NProc, rec.Env.GOMAXPROCS, rec.Env.GoVersion, rec.Sizes)
	for _, d := range declared(rec.Trace) {
		m, ok := rec.Metrics[d.name]
		if !ok {
			fmt.Fprintf(w, "   %-42s MISSING\n", d.name)
			continue
		}
		fmt.Fprintf(w, "   %-42s %14.6g %-8s", d.name, m.Value, m.Unit)
		if len(m.Samples) > 1 {
			fmt.Fprintf(w, " q1=%.6g q3=%.6g samples=%d", m.Q1, m.Q3, len(m.Samples))
		}
		if m.N > 0 {
			fmt.Fprintf(w, " n=%d", m.N)
		}
		if m.TailP > 0 {
			fmt.Fprintf(w, " p%g=%.6g", m.TailP, m.Tail)
		}
		fmt.Fprintln(w)
	}
	for _, p := range rec.Problems {
		fmt.Fprintf(w, "   PROBLEM: %s\n", p)
	}
}

// runOne is the PR driver's entry point: one workload, and as the last line
// of standard output one JSON object with correct, attempted, failed and the
// declared metrics (end-to-end untraced, per-layer traced).
func runOne(w io.Writer, name string, cfg runConfig) error {
	rec, err := runWorkload(name, cfg)
	if err != nil {
		return err
	}
	printRecord(w, rec)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, map[string]value{}}
	defs := perLayer
	if !cfg.trace {
		defs = endToEnd
	}
	for _, d := range defs {
		m, ok := rec.Metrics[d.name]
		if !ok {
			return fmt.Errorf("%s did not report %s", name, d.name)
		}
		line.Metrics[d.name] = value{m.Value, m.Unit}
	}
	return json.NewEncoder(w).Encode(line)
}

// suite is one pass over all six workloads; -compare and -calibrate read it.
type suite struct {
	Seed    uint64    `json:"seed"`
	Seconds float64   `json:"seconds"`
	Records []*Record `json:"records"`
}

func runSuite(w io.Writer, cfg runConfig) (*suite, error) {
	s := &suite{Seed: cfg.seed, Seconds: cfg.seconds}
	for _, wl := range workloads {
		rec, err := runWorkload(wl.name, cfg)
		if err != nil {
			return nil, err
		}
		printRecord(w, rec)
		s.Records = append(s.Records, rec)
	}
	return s, nil
}

func (s *suite) write(path string) error {
	data, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readSuite(path string) (*suite, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := &suite{}
	if err := json.Unmarshal(data, s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func (s *suite) record(workload string) *Record {
	for _, r := range s.Records {
		if r.Workload == workload {
			return r
		}
	}
	return nil
}
