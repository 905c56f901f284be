package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"distenc"
	"distenc/internal/core"
	"distenc/internal/graph"
	"distenc/internal/metrics"
	"distenc/internal/part"
	"distenc/internal/rdd"
	"distenc/internal/serve"
	"distenc/internal/sptensor"
	"distenc/internal/transport"
)

// job is what the parent hands the measured subprocess: the workload runs in
// a process of its own so that peak_rss_mb is the solver's and server's
// memory, not the input generator's.
type job struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Quick    bool    `json:"quick"`
	Dir      string  `json:"dir"`
}

const jobEnv = "DISTENC_BENCH_JOB"

// childHook turns the process into the measured subprocess when jobEnv is
// set, the same re-exec idiom as transport.WorkerHook (which must run first:
// the TCP workers this process spawns inherit jobEnv).
func childHook() {
	spec := os.Getenv(jobEnv)
	if spec == "" {
		return
	}
	var j job
	if err := json.Unmarshal([]byte(spec), &j); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child: bad job:", err)
		os.Exit(2)
	}
	rec, err := runChild(j)
	if err == nil {
		err = json.NewEncoder(os.Stdout).Encode(rec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// solveRun is what one repeat's solve stage measured.
type solveRun struct {
	nnz        int
	tensorHash uint64
	hash       uint64
	setup      time.Duration
	read       time.Duration
	// iterMs are the timed iterations (warm-up excluded), from successive
	// OnIteration Elapsed values.
	iterMs        []float64
	toTarget      time.Duration
	itersToTarget int
	reached       bool
	// timed sums Result.Phases over the timed iterations; shuffled sums
	// BytesShuffled over all of them.
	timed    metrics.PhaseTimes
	shuffled int64
	iters    int
	mapSkew  float64
	peakMach int64
	retries  int64
	// heapGrowthMB is live heap gained per timed iteration (traced repeat).
	heapGrowthMB float64
	// Direct public-function timings taken in the traced repeat's set-up.
	greedy, layout, spectral time.Duration
	imbalance                float64
	res                      *core.Result
}

func (s *solveRun) shufflePerNNZIter() float64 {
	return float64(s.shuffled) / float64(s.iters) / float64(s.nnz)
}

// serveRun is what one repeat's serve stage measured. The load window is cut
// into slices of about sliceLen; cellsPerS and p50Us hold one value per slice
// (cells answered over the slice's measured length, median round trip of the
// requests that completed in it), latUs every round trip of the window.
type serveRun struct {
	setup     time.Duration
	load      time.Duration
	requests  int64
	failed    int64
	cellsPerS []float64
	p50Us     []float64
	latUs     []float64
	checked   int64
	checkedOK int64
	hitRate   float64
	pingUs    []float64
}

func runChild(j job) (*Record, error) {
	w, err := findWorkload(j.Workload)
	if err != nil {
		return nil, err
	}
	repeats := solveRepeats
	if j.Trace {
		repeats = traceRepeats
	}
	if j.Quick {
		w = w.quick()
		repeats = 2
	}
	rec := &Record{
		Workload: w.name, Seed: j.Seed, Trace: j.Trace, Quick: j.Quick,
		Metrics: map[string]Metric{}, Sizes: map[string]any{},
		Env: Env{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()},
	}
	window := time.Duration(w.serve.window * j.Seconds / solveRepeats * float64(time.Second))

	var tr *tracer
	var solves []*solveRun
	var serves []*serveRun
	for r := 0; r < repeats; r++ {
		var rt *tracer
		if j.Trace && r == repeats-1 {
			tr = newTracer()
			tr.run = r
			rt = tr
		}
		run := rt.begin("run")
		rec.Attempted++
		sv, err := solveOnce(w.solve, j, rt)
		if err != nil {
			rec.Failed++
			rec.problem("repeat %d: solve: %v", r, err)
			rt.end(run)
			continue
		}
		solves = append(solves, sv)
		ckpt := filepath.Join(j.Dir, modelFile)
		if w.serve.dims == nil {
			if err := writeCheckpoint(ckpt, sv.res.Model.Factors, sv.res.Aux); err != nil {
				return nil, err
			}
		}
		sv.res.Aux = nil // only the factors are needed from here on
		runtime.GC()     // the serve stage starts from a collected heap, not the solve's garbage
		pv, err := serveOnce(w.serve, ckpt, window, j.Seed, r, rt)
		if err != nil {
			rec.Attempted++
			rec.Failed++
			rec.problem("repeat %d: serve: %v", r, err)
		} else {
			serves = append(serves, pv)
			rec.Attempted += pv.requests
			rec.Failed += pv.failed
		}
		rt.end(run)
		runtime.GC()
	}
	if len(solves) == 0 || len(serves) == 0 {
		return nil, fmt.Errorf("no repeat of %s completed: %s", w.name, strings.Join(rec.Problems, "; "))
	}

	endToEndMetrics(rec, w, solves, serves)
	if j.Trace {
		probes(rec, w, j, solves, serves, tr)
		if err := tr.writeChrome(filepath.Join(filepath.Dir(j.Dir), "trace-"+w.name+".json")); err != nil {
			return nil, err
		}
	}
	rec.put("peak_rss_mb", "MB", peakRSSMB())
	rec.put(errorRate, "fraction", float64(rec.Failed)/float64(rec.Attempted))
	rec.Correct = rec.Failed == 0 && len(rec.Problems) == 0
	return rec, nil
}

// endToEndMetrics turns the repeats into the end-to-end metrics and runs the
// output checks that need every repeat: factor hashes equal to repeat 1's,
// the convergence target reached, sampled predictions bit-equal.
func endToEndMetrics(rec *Record, w workload, solves []*solveRun, serves []*serveRun) {
	first := solves[0]
	rec.TensorHash = fmt.Sprintf("%016x", first.tensorHash)
	rec.FactorHash = fmt.Sprintf("%016x", first.hash)
	rec.Sizes["solve_dims"] = w.solve.dims
	rec.Sizes["solve_nnz"] = first.nnz
	rec.Sizes["solve_rank"] = w.solve.rank
	rec.Sizes["solve_partitions"] = w.solve.parts
	rec.Sizes["solve_iterations"] = w.solve.iters
	rec.Sizes["serve_dims"] = first.res.Model.Dims()
	rec.Sizes["serve_rank"] = first.res.Model.Rank()
	if w.serve.dims != nil {
		rec.Sizes["serve_dims"], rec.Sizes["serve_rank"] = w.serve.dims, w.serve.rank
	}
	rec.Sizes["serve_batch"] = w.serve.batch
	rec.Sizes["serve_cache_rows"] = cacheRows

	var setup, iterMed, iterAll, toTarget, shuffle []float64
	hashOK := 0
	for r, s := range solves {
		iterMed = append(iterMed, median(s.iterMs))
		iterAll = append(iterAll, s.iterMs...)
		shuffle = append(shuffle, s.shufflePerNNZIter())
		if s.hash == first.hash {
			hashOK++
		} else {
			rec.Failed++
			rec.problem("repeat %d: factor hash %016x differs from repeat 0's %016x", r, s.hash, first.hash)
		}
		if s.reached {
			toTarget = append(toTarget, s.toTarget.Seconds())
		} else {
			rec.Failed++
			rec.problem("repeat %d: train RMSE never reached %g x its iteration-0 value", r, w.solve.target)
		}
	}
	var cellsPerS, p50, latAll []float64
	var checked, checkedOK int64
	for r, p := range serves {
		// One set-up per repeat: the solve stage's plus the serve stage's.
		if r < len(solves) {
			setup = append(setup, (solves[r].setup + p.setup).Seconds())
		}
		cellsPerS = append(cellsPerS, p.cellsPerS...)
		p50 = append(p50, p.p50Us...)
		latAll = append(latAll, p.latUs...)
		checked += p.checked
		checkedOK += p.checkedOK
	}
	if checkedOK != checked {
		rec.problem("%d of %d sampled predict responses differ from Kruskal.At", checked-checkedOK, checked)
	}
	rec.putBest("setup_s", "s", false, setup...)
	rec.putPooled("iter_ms", "ms", iterMed, iterAll)
	rec.putBest("time_to_rmse_s", "s", false, toTarget...)
	rec.put("shuffle_bytes_per_nnz_iter", "B", shuffle...)
	rec.putBest("predict_cells_per_s", "1/s", true, cellsPerS...)
	rec.putPooled("predict_p50_us", "us", p50, latAll)
	rec.put("solve_repeats_ok", "count", float64(hashOK))
	rec.put("predict_checked_ok", "fraction", float64(checkedOK)/float64(max(checked, 1)))
}

// readInputs reads the solve stage's tensor and similarities from dir.
func readInputs(sp solveSpec, dir string) (*sptensor.Tensor, []*graph.Similarity, error) {
	f, err := os.Open(filepath.Join(dir, tensorFile))
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	t, err := distenc.ReadBinary(f)
	if err != nil {
		return nil, nil, err
	}
	if !sp.facebook {
		return t, nil, nil
	}
	sims := make([]*graph.Similarity, t.Order())
	for n := range sims {
		sf, err := os.Open(filepath.Join(dir, simFile(n)))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, nil, err
		}
		sims[n], err = distenc.ReadSimilarity(bufio.NewReader(sf))
		sf.Close()
		if err != nil {
			return nil, nil, err
		}
	}
	return t, sims, nil
}

// options are the solver settings of the spec; everything not named here is
// a library default (auto kernel, varint wire, greedy partitioner).
func (sp solveSpec) options(seed uint64) core.DistOptions {
	return core.DistOptions{
		Options: core.Options{
			Rank: sp.rank, MaxIter: sp.iters, TruncK: sp.truncK, Seed: seed,
			Tol: -1, // negative: never stop early, so every repeat runs every iteration
		},
		Partitions:    sp.parts,
		GridPartition: true,
	}
}

// newCluster starts the spec's backend: the in-process engine, or two TCP
// worker processes re-exec'd from this binary. close tears both down.
func newCluster(tcp bool, cfg rdd.Config) (c *rdd.Cluster, startWorkers time.Duration, close func(), err error) {
	var tp *transport.Client
	if tcp {
		t0 := time.Now()
		tp, err = transport.StartWorkers(machines, transport.Options{})
		if err != nil {
			return nil, 0, nil, err
		}
		startWorkers = time.Since(t0)
		cfg.Transport = tp
	}
	cfg.Machines, cfg.CoresPerMachine = machines, coresPerMachine
	c, err = rdd.NewCluster(cfg)
	if err != nil {
		if tp != nil {
			tp.Close()
		}
		return nil, 0, nil, err
	}
	return c, startWorkers, func() {
		c.Close()
		if tp != nil {
			tp.Close() // the caller owns the transport and closes it after the cluster
		}
	}, nil
}

// solveOnce runs one repeat's solve stage on a fresh cluster.
func solveOnce(sp solveSpec, j job, tr *tracer) (*solveRun, error) {
	out := &solveRun{}
	setupSpan := tr.begin("setup")
	t0 := time.Now()
	s := tr.begin("distenc.ReadBinary")
	t, sims, err := readInputs(sp, j.Dir)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	out.read = time.Since(t0)
	out.nnz = t.NNZ()

	t1 := time.Now()
	c, startWorkers, closeCluster, err := newCluster(sp.tcp, rdd.Config{})
	if err != nil {
		return nil, err
	}
	defer closeCluster()
	if sp.tcp {
		tr.add("transport.StartWorkers", setupSpan, t1, startWorkers)
	}
	tr.add("rdd.NewCluster", setupSpan, t1.Add(startWorkers), time.Since(t1)-startWorkers)
	before := time.Since(t0)

	opt := sp.options(j.Seed)
	if tr != nil {
		// What CompleteDistributed does before its first iteration, called
		// directly so the trace can attribute it; not part of setup_s.
		out.setupProbes(tr, t, sims, opt)
	}

	var last time.Duration
	var ends []time.Time
	var heapAt [2]float64 // live heap when warm-up ended, and at the last iteration
	opt.OnIteration = func(p metrics.ConvergencePoint) {
		now := time.Now()
		ends = append(ends, now)
		if p.Iter >= sp.warmup {
			out.iterMs = append(out.iterMs, float64(p.Elapsed-last)/float64(time.Millisecond))
		}
		if tr != nil {
			switch p.Iter {
			case sp.warmup - 1:
				heapAt[0] = liveHeapMB()
			case sp.iters - 1:
				heapAt[1] = liveHeapMB()
			}
		}
		// Time spent in this callback belongs to no iteration.
		last = p.Elapsed + time.Since(now)
	}
	w0 := time.Now()
	res, err := core.CompleteDistributed(c, t, sims, opt)
	wall := time.Since(w0)
	if err != nil {
		return nil, err
	}
	out.setup = before + wall - res.Elapsed
	tr.add("core.CompleteDistributed.setup", setupSpan, w0, wall-res.Elapsed)
	tr.endAt(setupSpan, w0.Add(wall-res.Elapsed))
	out.res = res
	out.iters = res.Iters
	out.tensorHash = hashTensor(t)
	out.hash = hashFactors(res.Model.Factors)

	target := sp.target * res.Trace[0].TrainRMSE
	out.toTarget, out.reached = res.Trace.TimeToReach(target)
	out.itersToTarget = slices.IndexFunc(res.Trace, func(p metrics.ConvergencePoint) bool { return p.TrainRMSE <= target })
	for _, ph := range res.Phases {
		out.shuffled += ph.BytesShuffled
		if ph.Iter >= sp.warmup {
			out.timed.MTTKRPMap += ph.MTTKRPMap
			out.timed.MTTKRPReduce += ph.MTTKRPReduce
			out.timed.Gram += ph.Gram
			out.timed.Driver += ph.Driver
			out.timed.Total += ph.Total
			out.timed.Iter++
		}
	}
	var skews []float64
	for _, st := range c.StageLog() {
		if strings.Contains(st.Name, "mttkrp-map") {
			skews = append(skews, st.Skew())
		}
	}
	out.mapSkew = median(skews)
	out.peakMach = c.MaxPeakMemory()
	out.retries = c.Metrics().TaskRetries.Load()
	if timed := sp.iters - sp.warmup; tr != nil && timed > 0 {
		out.heapGrowthMB = (heapAt[1] - heapAt[0]) / float64(timed)
	}
	solveSpans(tr, res, ends)
	return out, nil
}

// setupProbes times, as spans of the traced set-up, the public functions
// CompleteDistributed calls before iterating.
func (out *solveRun) setupProbes(tr *tracer, t *sptensor.Tensor, sims []*graph.Similarity, opt core.DistOptions) {
	s, t0 := tr.begin("part.Greedy"), time.Now()
	for n := range t.Dims {
		counts := t.ModeCounts(n)
		out.imbalance = max(out.imbalance, part.Stats(counts, part.Greedy(counts, opt.Partitions)).Imbalance)
	}
	out.greedy = time.Since(t0)
	tr.end(s)

	s, t0 = tr.begin("core.NewLayout"), time.Now()
	opt.Options = opt.Options.WithDefaults()
	core.NewLayout(t, opt)
	out.layout = time.Since(t0)
	tr.end(s)

	s, t0 = tr.begin("graph.TruncatedSpectral"), time.Now()
	if _, err := probeSpectral(t, sims, opt.TruncK); err == nil {
		out.spectral = time.Since(t0)
	}
	tr.end(s)
}

// probeSpectral decomposes the mode-0 Laplacian as the solver's set-up does;
// a workload without similarities uses the Eq. (17) tri-diagonal one so the
// layer still gets a number at this mode size.
func probeSpectral(t *sptensor.Tensor, sims []*graph.Similarity, truncK int) (*graph.Spectral, error) {
	sim := graph.TriDiagonal(t.Dims[0])
	if sims != nil && sims[0] != nil {
		sim = sims[0]
	}
	if truncK == 0 {
		truncK = 20
	}
	return graph.TruncatedSpectral(graph.NewLaplacian(sim), truncK, rand.New(rand.NewPCG(1, 2)))
}

// solveSpans rebuilds the solve's span tree from what the program reports
// about itself: one span per iteration ending when OnIteration fired, with
// the map, reduce, gram and driver phases of Result.Phases laid end to end
// (they run in that order) as its children.
func solveSpans(tr *tracer, res *core.Result, ends []time.Time) {
	if tr == nil || len(ends) == 0 {
		return
	}
	first := ends[0].Add(-res.Phases[0].Total)
	solve := tr.add("solve", tr.current(), first, ends[len(ends)-1].Sub(first))
	for i, ph := range res.Phases {
		start := ends[i].Add(-ph.Total)
		it := tr.add("iteration "+strconv.Itoa(ph.Iter), solve, start, ph.Total)
		for _, c := range []struct {
			name string
			d    time.Duration
		}{{"mttkrp-map", ph.MTTKRPMap}, {"mttkrp-reduce", ph.MTTKRPReduce}, {"gram", ph.Gram}, {"driver", ph.Driver}} {
			tr.add(c.name, it, start, c.d)
			start = start.Add(c.d)
		}
	}
}

// serveOnce runs one repeat's serve stage: load the image, start a server
// configured as cmd/distenc-serve configures it, and drive it for window
// with serveClients closed-loop clients (each sends its next request only
// when the previous reply has arrived — batch-scoring callers wait for their
// answers).
func serveOnce(sp serveSpec, ckpt string, window time.Duration, seed uint64, rep int, tr *tracer) (*serveRun, error) {
	out := &serveRun{}
	setupSpan := tr.begin("setup")
	if tr != nil {
		// LoadModel's first half, called directly for attribution.
		s := tr.begin("core.ReadCheckpoint")
		_, err := core.ReadCheckpoint(ckpt)
		tr.end(s)
		if err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	s := tr.begin("serve.LoadModel")
	m, err := serve.LoadModel("bench", ckpt, "", cacheRows)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	out.load = time.Since(t0)
	s = tr.begin("serve.NewServer")
	reg := serve.NewRegistry()
	reg.Put(m)
	srv, err := serve.NewServer(reg, serve.Config{Listen: "127.0.0.1:0", CacheRows: cacheRows})
	if err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	var serveErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		serveErr = srv.Serve()
	}()
	stop := func() {
		srv.Shutdown()
		wg.Wait()
	}
	probe, err := serve.Dial(srv.Addr())
	if err == nil {
		err = probe.Ping()
	}
	tr.end(s)
	if err != nil {
		stop()
		return nil, err
	}
	out.setup = time.Since(t0)
	tr.end(setupSpan)
	if tr != nil {
		for i := 0; i < 2000; i++ {
			p0 := time.Now()
			if err := probe.Ping(); err != nil {
				break
			}
			out.pingUs = append(out.pingUs, float64(time.Since(p0))/float64(time.Microsecond))
		}
	}
	probe.Close()

	load := tr.begin("serve")
	results := make([]clientResult, serveClients)
	nSlices := max(1, int((window+sliceLen/2)/sliceLen))
	slice := window / time.Duration(nSlices)
	start := time.Now().Add(serveWarmup) // replies that arrive before start are not timed
	var clients sync.WaitGroup
	for g := range results {
		clients.Add(1)
		go func() {
			defer clients.Done()
			rng := rand.New(rand.NewPCG(seed, uint64(rep*serveClients+g)))
			results[g].run(srv.Addr(), sp, m.Kruskal(), rng, start, slice, nSlices)
		}()
	}
	clients.Wait()
	elapsed := time.Since(start)
	tr.end(load)
	out.hitRate = reg.Snapshot()[0].HitRate()
	stop()
	if serveErr != nil {
		return nil, serveErr
	}
	for _, r := range results {
		out.requests += r.requests
		out.failed += r.failed
		out.checked += r.checked
		out.checkedOK += r.checkedOK
	}
	for k := range nSlices {
		// The last slice ends when the last reply arrived, not at the deadline.
		length := slice
		if k == nSlices-1 {
			length = elapsed - time.Duration(k)*slice
		}
		var cells int64
		var lat []float64
		for _, r := range results {
			cells += r.cells[k]
			lat = append(lat, r.latUs[k]...)
		}
		if len(lat) == 0 {
			continue // every request of the slice failed; they are counted above
		}
		out.cellsPerS = append(out.cellsPerS, float64(cells)/length.Seconds())
		out.p50Us = append(out.p50Us, median(lat))
		out.latUs = append(out.latUs, lat...)
	}
	if len(out.latUs) == 0 {
		return nil, fmt.Errorf("no predict request of %d succeeded: %v", out.requests, results[0].lastErr)
	}
	return out, nil
}

// clientResult is one load connection's tally. A failed request is counted
// and the client reconnects; nothing is dropped from the report. cells and
// latUs are kept per slice of the window, a reply belonging to the slice it
// arrived in.
type clientResult struct {
	requests, failed   int64
	checked, checkedOK int64
	cells              []int64
	latUs              [][]float64
	lastErr            error
}

// cellSource returns a function that fills a flat row-major index block with
// cells drawn from the spec's distribution.
func cellSource(sp serveSpec, dims []int, rng *rand.Rand) func(flat []int32) {
	draw := make([]func() int32, len(dims))
	for n, d := range dims {
		draw[n] = func() int32 { return int32(rng.IntN(d)) }
		if sp.zipf > 0 {
			z := rand.NewZipf(rng, sp.zipf, 1, uint64(d-1))
			draw[n] = func() int32 { return int32(z.Uint64()) }
		}
	}
	return func(flat []int32) {
		for i := range flat {
			flat[i] = draw[i%len(dims)]()
		}
	}
}

func (r *clientResult) run(addr string, sp serveSpec, model *sptensor.Kruskal, rng *rand.Rand, begin time.Time, slice time.Duration, nSlices int) {
	dims := model.Dims()
	fill := cellSource(sp, dims, rng)
	flat := make([]int32, sp.batch*len(dims))
	deadline := begin.Add(slice * time.Duration(nSlices))
	r.cells = make([]int64, nSlices)
	r.latUs = make([][]float64, nSlices)
	for k := range r.latUs {
		r.latUs[k] = make([]float64, 0, 1<<15)
	}
	var cl *serve.Client
	defer func() {
		if cl != nil {
			cl.Close()
		}
	}()
	for time.Now().Before(deadline) {
		if cl == nil {
			var err error
			if cl, err = serve.Dial(addr); err != nil {
				r.requests++
				r.failed++
				r.lastErr = err
				return
			}
		}
		fill(flat)
		start := time.Now()
		vals, err := cl.Predict("bench", len(dims), flat)
		lat := time.Since(start)
		r.requests++
		if err != nil {
			r.failed++
			r.lastErr = err
			cl.Close()
			cl = nil
			continue
		}
		if done := start.Add(lat).Sub(begin); done >= 0 { // not warm-up
			k := min(int(done/slice), nSlices-1)
			r.cells[k] += int64(len(vals))
			r.latUs[k] = append(r.latUs[k], float64(lat)/float64(time.Microsecond))
		}
		// Sampled output check: the first response and every 1000th.
		if r.requests%1000 == 1 {
			r.checked++
			ok := true
			for i, v := range vals {
				ok = ok && math.Float64bits(v) == math.Float64bits(model.At(flat[i*len(dims):(i+1)*len(dims)]))
			}
			if ok {
				r.checkedOK++
			}
		}
	}
}

// peakRSSMB is the process's VmHWM.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// liveHeapMB is the heap in use after a collection.
func liveHeapMB() float64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
