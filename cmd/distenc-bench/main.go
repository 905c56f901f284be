// Command distenc-bench runs the paper-reproduction experiment suite: one
// driver per table and figure of the evaluation section (see DESIGN.md §4
// for the experiment index and EXPERIMENTS.md for recorded results).
//
// Usage:
//
//	distenc-bench                 # run everything at full scale
//	distenc-bench -exp fig3a      # one experiment
//	distenc-bench -small          # seconds-scale smoke profile
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"distenc/internal/bench"
	"distenc/internal/rdd"
	"distenc/internal/transport"
)

var experiments = []struct {
	name string
	desc string
	run  func(w io.Writer, p bench.Profile)
}{
	{"table2", "Table II dataset inventory", func(w io.Writer, p bench.Profile) { bench.TableII(w, p) }},
	{"fig3a", "Figure 3a runtime vs dimensionality", func(w io.Writer, p bench.Profile) { bench.Fig3a(w, p) }},
	{"fig3b", "Figure 3b runtime vs non-zeros", func(w io.Writer, p bench.Profile) { bench.Fig3b(w, p) }},
	{"fig3c", "Figure 3c runtime vs rank", func(w io.Writer, p bench.Profile) { bench.Fig3c(w, p) }},
	{"fig4", "Figure 4 machine scalability", func(w io.Writer, p bench.Profile) { bench.Fig4(w, p) }},
	{"fig5", "Figure 5 reconstruction error", func(w io.Writer, p bench.Profile) { bench.Fig5(w, p) }},
	{"fig6a", "Figure 6a recommender RMSE", func(w io.Writer, p bench.Profile) { bench.Fig6a(w, p) }},
	{"fig6b", "Figure 6b convergence rate", func(w io.Writer, p bench.Profile) { bench.Fig6b(w, p) }},
	{"fig7", "Figure 7 link prediction", func(w io.Writer, p bench.Profile) { bench.Fig7(w, p) }},
	{"table3", "Table III concept discovery", func(w io.Writer, p bench.Profile) { bench.TableIII(w, p) }},
	{"lemmas", "Lemmas 1–3 accounting", func(w io.Writer, p bench.Profile) { bench.Lemmas(w, p) }},
	{"ablations", "§III design-choice ablations", func(w io.Writer, p bench.Profile) { bench.Ablations(w, p) }},
	{"wires", "shuffle wire-format table", func(w io.Writer, p bench.Profile) { bench.Wires(w, p) }},
	{"phases", "per-iteration phase breakdown", func(w io.Writer, p bench.Profile) { bench.Phases(w, p) }},
}

func main() {
	// Must run before anything else: with -backend tcp each experiment
	// cluster re-execs this binary as its worker processes.
	transport.WorkerHook()

	log.SetFlags(0)
	var (
		exp       = flag.String("exp", "all", "experiment to run (all, "+names()+")")
		backendF  = flag.String("backend", "inproc", "execution backend: inproc (default) or tcp (one worker process per simulated machine)")
		small     = flag.Bool("small", false, "seconds-scale smoke profile")
		seed      = flag.Uint64("seed", 1, "workload seed")
		machines  = flag.Int("machines", 4, "simulated machines for non-scalability experiments")
		traceOut  = flag.String("trace", "", "write a Chrome-trace JSON of the phases experiment's run to this file")
		stageSum  = flag.Bool("stage-summary", false, "print the per-stage engine table in the phases experiment")
		faultSpec = flag.String("fault-plan", "", "seeded chaos schedule for the phases experiment's cluster, e.g. \"seed=7,failprob=0.02,kill=1@5\"")
		specSpec  = flag.String("speculation", "", "speculative execution for the phases experiment's cluster: \"on\" or \"quantile=0.75,multiplier=1.5,min=10ms\"")
		wireStr   = flag.String("wire", "varint", "shuffle wire format for DisTenC runs: varint or f32")
		cpuProf   = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a pprof heap profile to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		pf, err := os.Create(*cpuProf)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memProf == "" {
			return
		}
		mf, err := os.Create(*memProf)
		if err != nil {
			log.Fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(mf); err != nil {
			log.Fatal(err)
		}
		if err := mf.Close(); err != nil {
			log.Fatal(err)
		}
	}()

	wire, err := rdd.ParseWireFormat(*wireStr)
	if err != nil {
		log.Fatal(err)
	}
	p := bench.Profile{
		Small: *small, Seed: *seed, Machines: *machines,
		TraceFile: *traceOut, StageSummary: *stageSum,
		Wire: wire, Backend: *backendF,
	}
	if *faultSpec != "" {
		fault, err := rdd.ParseFaultPlan(*faultSpec)
		if err != nil {
			log.Fatal(err)
		}
		p.Fault = fault
	}
	if *specSpec != "" {
		spec, err := rdd.ParseSpeculation(*specSpec)
		if err != nil {
			log.Fatal(err)
		}
		p.Speculation = spec
	}
	ran := 0
	start := time.Now()
	for _, e := range experiments {
		if *exp != "all" && *exp != e.name {
			continue
		}
		t0 := time.Now()
		e.run(os.Stdout, p)
		fmt.Printf("[%s done in %.1fs]\n", e.name, time.Since(t0).Seconds())
		ran++
	}
	if ran == 0 {
		log.Fatalf("unknown experiment %q (want all, %s)", *exp, names())
	}
	fmt.Printf("\nsuite finished: %d experiment(s) in %.1fs\n", ran, time.Since(start).Seconds())
}

func names() string {
	var ns []string
	for _, e := range experiments {
		ns = append(ns, e.name)
	}
	return strings.Join(ns, ", ")
}
