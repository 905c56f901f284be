// Command distenc completes a partially observed sparse tensor read from a
// COO text file, optionally with per-mode similarity graphs, and writes the
// learned factor matrices.
//
// Usage:
//
//	distenc -input ratings.coo -rank 10 -maxiter 50 -machines 4 \
//	        -sim 1=movies.sim -output factors/
//
// Input format: a header "dims I1 I2 … IN", then one "i1 … iN value" line
// per observation. Similarity files: "nodes N" then "i j weight" lines.
// Output: one factors-modeK.txt per mode (rows of the I_k×R factor matrix),
// from which any cell (i1,…,iN) is predicted as Σ_r Π_k A_k[i_k,r].
//
// Observability: -stage-summary prints the engine's per-stage timing/shuffle
// table and the solver's per-iteration phase breakdown; -trace run.json
// writes a Chrome-trace JSON (open in chrome://tracing or ui.perfetto.dev)
// with one lane per simulated machine and a driver lane for stage and
// algebra spans. -cpuprofile/-memprofile write standard pprof profiles.
//
// Fault tolerance: -checkpoint-every N -checkpoint-dir DIR persists the full
// solver state every N iterations; -resume restarts from the latest
// checkpoint and reproduces the uninterrupted run's factors bit-for-bit.
// -fault-plan "seed=7,failprob=0.02,kill=1@5" runs the simulated cluster
// under a seeded chaos schedule (random task failures, a machine kill at a
// given stage, straggler delays) whose recovery shows up in -stage-summary
// and the trace.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"distenc"
	"distenc/internal/serve"
)

type simFlags map[int]string

func (s simFlags) String() string { return fmt.Sprint(map[int]string(s)) }

func (s simFlags) Set(v string) error {
	mode, path, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want MODE=FILE, got %q", v)
	}
	m, err := strconv.Atoi(mode)
	if err != nil || m < 0 {
		return fmt.Errorf("bad mode %q", mode)
	}
	s[m] = path
	return nil
}

func main() {
	// Must run before anything else: with -backend tcp the driver re-execs
	// this binary as its worker processes.
	distenc.WorkerHook()

	log.SetFlags(0)
	log.SetPrefix("distenc: ")
	var (
		input    = flag.String("input", "", "COO tensor file (required)")
		output   = flag.String("output", ".", "directory for factor matrices")
		rank     = flag.Int("rank", 10, "CP rank R")
		maxIter  = flag.Int("maxiter", 50, "maximum ADMM iterations")
		tol      = flag.Float64("tol", 1e-4, "convergence tolerance")
		lambda   = flag.Float64("lambda", 1e-2, "ℓ2 regularization λ")
		alpha    = flag.Float64("alpha", 1e-1, "auxiliary-information weight α")
		truncK   = flag.Int("trunck", 0, "Laplacian eigen truncation K (0 = exact)")
		seed     = flag.Uint64("seed", 1, "factor initialization seed")
		machines = flag.Int("machines", 4, "simulated machines (0 = serial solver)")
		verbose  = flag.Bool("v", false, "print per-iteration progress")
		nonneg   = flag.Bool("nonneg", false, "enforce the non-negativity constraint")
		predict  = flag.String("predict", "", "after training, predict the cells listed in this file (one \"i1 i2 … iN\" line each; \"-\" for stdin)")

		ckptEvery   = flag.Int("checkpoint-every", 0, "persist the solver state every N iterations to -checkpoint-dir (0 = off)")
		ckptDir     = flag.String("checkpoint-dir", "", "directory for solver checkpoints (required with -checkpoint-every; where -resume looks)")
		resume      = flag.Bool("resume", false, "resume from the latest checkpoint in -checkpoint-dir instead of starting fresh")
		backend     = flag.String("backend", "inproc", "execution backend: inproc (default, single process) or tcp (real worker processes; needs -machines > 0)")
		workerAddrs = flag.String("worker-addrs", "", "comma-separated addresses of running distenc-worker daemons, one per machine (default with -backend tcp: spawn workers by re-execing this binary)")

		faultSpec = flag.String("fault-plan", "", "seeded chaos schedule for the simulated cluster, e.g. \"seed=7,failprob=0.02,kill=1@5\" (needs -machines > 0; see distenc.ParseFaultPlan)")
		wireStr   = flag.String("wire", "varint", "shuffle wire format: varint (delta rows, lossless, default) or f32 (lossy values, f64 accumulation)")
		specSpec  = flag.String("speculation", "", "speculative execution for straggler mitigation: \"on\" for defaults or \"quantile=0.75,multiplier=1.5,min=10ms\" (needs -machines > 0; see distenc.ParseSpeculation)")

		traceOut = flag.String("trace", "", "write a Chrome-trace JSON (chrome://tracing, Perfetto) of every stage, task and driver span to this file (needs -machines > 0)")
		stageSum = flag.Bool("stage-summary", false, "print the per-stage timing/shuffle table and per-iteration phase breakdown after solving")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile to this file")
	)
	sims := simFlags{}
	flag.Var(sims, "sim", "per-mode similarity file as MODE=FILE (repeatable)")
	flag.Parse()

	if *input == "" {
		flag.Usage()
		os.Exit(2)
	}
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
	f, err := os.Open(*input)
	if err != nil {
		log.Fatal(err)
	}
	t, err := distenc.ReadCOO(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("loaded tensor dims=%v nnz=%d", t.Dims, t.NNZ())

	var similarities []*distenc.Similarity
	if len(sims) > 0 {
		similarities = make([]*distenc.Similarity, t.Order())
		for mode, path := range sims {
			if mode >= t.Order() {
				log.Fatalf("similarity mode %d out of range for order-%d tensor", mode, t.Order())
			}
			sf, err := os.Open(path)
			if err != nil {
				log.Fatal(err)
			}
			s, err := distenc.ReadSimilarity(sf)
			sf.Close()
			if err != nil {
				log.Fatalf("%s: %v", path, err)
			}
			if s.N != t.Dims[mode] {
				log.Fatalf("%s: %d nodes but mode %d has size %d", path, s.N, mode, t.Dims[mode])
			}
			similarities[mode] = s
			log.Printf("mode %d similarity: %d nodes, %d edges", mode, s.N, s.NumEdges())
		}
	}

	opt := distenc.Options{
		Rank: *rank, MaxIter: *maxIter, Tol: *tol,
		Lambda: *lambda, Alpha: *alpha, TruncK: *truncK, Seed: *seed,
		NonNegative:     *nonneg,
		CheckpointEvery: *ckptEvery,
		CheckpointDir:   *ckptDir,
	}
	if (*resume || *ckptEvery > 0) && *ckptDir == "" {
		log.Fatal("-resume and -checkpoint-every need -checkpoint-dir")
	}
	if *verbose {
		opt.OnIteration = func(p distenc.ConvergencePoint) {
			log.Printf("iter %3d: train RMSE %.6f, delta %.3g, %.2fs",
				p.Iter, p.TrainRMSE, p.MaxDelta, p.Elapsed.Seconds())
		}
	}

	var res *distenc.Result
	var c *distenc.Cluster
	if *machines <= 0 {
		if *backend != "inproc" {
			log.Fatal("-backend tcp needs the distributed solver (-machines > 0)")
		}
		if *traceOut != "" {
			log.Fatal("-trace needs the distributed solver (-machines > 0)")
		}
		if *faultSpec != "" {
			log.Fatal("-fault-plan needs the distributed solver (-machines > 0)")
		}
		if *specSpec != "" {
			log.Fatal("-speculation needs the distributed solver (-machines > 0)")
		}
		if *wireStr != "varint" {
			log.Fatal("-wire needs the distributed solver (-machines > 0)")
		}
		if *resume {
			res, err = distenc.Resume(t, similarities, opt)
		} else {
			res, err = distenc.Complete(t, similarities, opt)
		}
	} else {
		var fault *distenc.FaultPlan
		if *faultSpec != "" {
			fault, err = distenc.ParseFaultPlan(*faultSpec)
			if err != nil {
				log.Fatal(err)
			}
		}
		var spec distenc.SpeculationConfig
		if *specSpec != "" {
			spec, err = distenc.ParseSpeculation(*specSpec)
			if err != nil {
				log.Fatal(err)
			}
		}
		wire, err := distenc.ParseWireFormat(*wireStr)
		if err != nil {
			log.Fatal(err)
		}
		var tp distenc.Transport
		switch *backend {
		case "inproc":
			if *workerAddrs != "" {
				log.Fatal("-worker-addrs needs -backend tcp")
			}
		case "tcp":
			var tcp *distenc.TCPTransport
			if *workerAddrs != "" {
				addrs := strings.Split(*workerAddrs, ",")
				if len(addrs) != *machines {
					log.Fatalf("-worker-addrs lists %d workers for %d machines", len(addrs), *machines)
				}
				tcp, err = distenc.DialTCPWorkers(addrs, distenc.TransportOptions{})
			} else {
				tcp, err = distenc.StartTCPWorkers(*machines, distenc.TransportOptions{})
			}
			if err != nil {
				log.Fatal(err)
			}
			defer tcp.Close() // after c.Close (LIFO): the cluster drops blocks first
			tp = tcp
			log.Printf("tcp backend: %d workers at %v", *machines, tcp.Addrs())
		default:
			log.Fatalf("unknown -backend %q (want inproc or tcp)", *backend)
		}
		// Per-task records cost memory proportional to task count, so the
		// engine only keeps them when a trace was asked for; the per-stage
		// rollups behind -stage-summary are always on.
		c, err = distenc.NewCluster(distenc.ClusterConfig{
			Machines:    *machines,
			TaskTrace:   *traceOut != "",
			Fault:       fault,
			Speculation: spec,
			Transport:   tp,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer c.Close()
		dopt := distenc.DistOptions{Options: opt, GridPartition: true, Wire: wire}
		if *resume {
			res, err = distenc.ResumeDistributed(c, t, similarities, dopt)
		} else {
			res, err = distenc.CompleteDistributed(c, t, similarities, dopt)
		}
	}
	if err != nil {
		log.Fatal(err)
	}
	if res.Blocking.Shape != nil {
		log.Print(res.Blocking)
	}
	final, _ := res.Trace.Final()
	log.Printf("finished: %d iterations, converged=%v, train RMSE %.6f, %.2fs",
		res.Iters, res.Converged, final.TrainRMSE, res.Elapsed.Seconds())
	if *backend == "tcp" && c != nil {
		m := c.Metrics()
		log.Printf("transport: %d calls, %d B out, %d B in",
			m.TransportCalls.Load(), m.TransportBytesOut.Load(), m.TransportBytesIn.Load())
	}
	if *verbose {
		fmt.Print(res.Trace)
	}
	if *stageSum {
		if c != nil {
			fmt.Print(c.Summary())
		}
		fmt.Print(res.Phases)
	}
	if *traceOut != "" && c != nil {
		tf, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := c.WriteChromeTrace(tf); err != nil {
			log.Fatal(err)
		}
		if err := tf.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s (load in chrome://tracing or ui.perfetto.dev)", *traceOut)
	}
	if *memProf != "" {
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
	}

	if err := os.MkdirAll(*output, 0o755); err != nil {
		log.Fatal(err)
	}
	for n, fmat := range res.Model.Factors {
		path := filepath.Join(*output, fmt.Sprintf("factors-mode%d.txt", n))
		out, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		for i := 0; i < fmat.Rows(); i++ {
			row := fmat.Row(i)
			for j, v := range row {
				if j > 0 {
					fmt.Fprint(out, " ")
				}
				fmt.Fprintf(out, "%g", v)
			}
			fmt.Fprintln(out)
		}
		if err := out.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s (%d×%d)", path, fmat.Rows(), fmat.Cols())
	}

	if *predict != "" {
		if err := predictCells(*predict, t.Order(), t.Dims, res); err != nil {
			log.Fatal(err)
		}
	}
}

// predictCells reads one multi-index per line (through the serving plane's
// hardened cell reader: 8MB line budget, line-numbered errors) and prints
// the model's prediction for each cell. Output is buffered and the flush
// error checked, so a closed or full stdout fails the run instead of
// silently truncating predictions.
func predictCells(path string, order int, dims []int, res *distenc.Result) error {
	var in *os.File
	if path == "-" {
		in = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	out := bufio.NewWriter(os.Stdout)
	err := serve.ForEachCell(in, order, func(line int, idx []int32) error {
		for i, v := range idx {
			if int(v) >= dims[i] {
				return fmt.Errorf("predict line %d: index %d out of range for mode %d (size %d)", line, v, i, dims[i])
			}
		}
		for i, v := range idx {
			if i > 0 {
				fmt.Fprint(out, " ")
			}
			fmt.Fprint(out, v)
		}
		_, werr := fmt.Fprintf(out, " %g\n", res.Model.At(idx))
		return werr
	})
	if ferr := out.Flush(); err == nil {
		err = ferr
	}
	return err
}
