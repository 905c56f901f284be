package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"time"

	"distenc"
	"distenc/internal/core"
	"distenc/internal/graph"
	"distenc/internal/mat"
	"distenc/internal/metrics"
	"distenc/internal/rdd"
	"distenc/internal/serve"
	"distenc/internal/sptensor"
	"distenc/internal/transport"
)

// probes fills the per-layer ledger of a traced run. Part of it is read off
// the repeats (phase shares, shuffle volume, skew — what the program reports
// about itself); the rest times each layer's public functions directly on
// this workload's inputs, every call a span under "probes". A probe that
// cannot run is a problem of the record, not a crash: the other layers still
// report.
func probes(rec *Record, w workload, j job, solves []*solveRun, serves []*serveRun, tr *tracer) {
	tr.run = -1
	root := tr.begin("probes")
	defer tr.end(root)
	p := &prober{rec: rec, tr: tr}

	t, sims, err := readInputs(w.solve, j.Dir)
	if err != nil {
		rec.problem("probes: %v", err)
		return
	}
	fromRepeats(rec, w, solves, serves)
	p.io(t)
	p.kernels(t, w.solve, j.Seed)
	p.engine()
	p.transport(w.solve, solves[0])
	p.algebra(t, sims, w.solve)
	p.baselines(t, sims, w.solve, j, solves[len(solves)-1])
	p.serving(w.serve, filepath.Join(j.Dir, modelFile), j.Seed)
}

type prober struct {
	rec *Record
	tr  *tracer
}

// time runs fn reps times, each a span, and returns the median duration.
func (p *prober) time(name string, reps int, fn func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		s, t0 := p.tr.begin(name), time.Now()
		fn()
		ds[i] = float64(time.Since(t0))
		p.tr.end(s)
	}
	return time.Duration(median(ds))
}

func (p *prober) fail(layer string, err error) { p.rec.problem("probe %s: %v", layer, err) }

func ns(d time.Duration, per int) float64 { return float64(d) / float64(max(per, 1)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mbps(bytes int, d time.Duration) float64 { return float64(bytes) / 1e6 / d.Seconds() }

// fromRepeats derives the ledger entries that the repeats already measured.
func fromRepeats(rec *Record, w workload, solves []*solveRun, serves []*serveRun) {
	traced := solves[len(solves)-1]
	var mapF, redF, gramF, drvF, drvMs, shuffle, skew, itersTo, readNs, iterAll []float64
	for _, s := range solves {
		tot := float64(s.timed.Total)
		mapF = append(mapF, float64(s.timed.MTTKRPMap)/tot)
		redF = append(redF, float64(s.timed.MTTKRPReduce)/tot)
		gramF = append(gramF, float64(s.timed.Gram)/tot)
		drvF = append(drvF, float64(s.timed.Driver)/tot)
		drvMs = append(drvMs, ms(s.timed.Driver)/float64(max(s.timed.Iter, 1)))
		shuffle = append(shuffle, s.shufflePerNNZIter())
		skew = append(skew, s.mapSkew)
		itersTo = append(itersTo, float64(s.itersToTarget))
		readNs = append(readNs, ns(s.read, s.nnz))
		iterAll = append(iterAll, s.iterMs...)
	}
	slices.Sort(iterAll)
	rec.put("core.phase_map_frac", "fraction", mapF...)
	rec.put("core.phase_reduce_frac", "fraction", redF...)
	rec.put("core.phase_gram_frac", "fraction", gramF...)
	rec.put("core.phase_driver_frac", "fraction", drvF...)
	rec.put("core.driver_ms_per_iter", "ms", drvMs...)
	rec.put("core.iters_to_target", "count", itersTo...)
	rec.put("core.iter_p90_ms", "ms", percentile(iterAll, 90))
	rec.put("rdd.shuffle_bytes_per_nnz_iter", "B", shuffle...)
	rec.put("rdd.map_skew", "ratio", skew...)
	rec.put("rdd.peak_machine_bytes", "B", float64(traced.peakMach))
	rec.put("rdd.heap_growth_mb_per_iter", "MB", traced.heapGrowthMB)
	rec.put("rdd.task_retries", "count", float64(traced.retries))
	rec.put("distenc.read_binary_ns_per_nnz", "ns", readNs...)
	rec.put("part.greedy_ns_per_index", "ns", ns(traced.greedy, sum(w.solve.dims)))
	rec.put("part.load_imbalance", "ratio", traced.imbalance)
	rec.put("core.layout_ns_per_nnz", "ns", ns(traced.layout, traced.nnz))
	rec.put("graph.truncated_spectral_ms", "ms", ms(traced.spectral))
	// The untraced repeat against the traced one: what recording spans and
	// sampling the heap cost the iterations.
	rec.put("bench.trace_overhead_frac", "fraction", median(traced.iterMs)/median(solves[0].iterMs)-1)

	var loadMs, hit, latAll, pings []float64
	for _, s := range serves {
		loadMs = append(loadMs, ms(s.load))
		hit = append(hit, s.hitRate)
		latAll = append(latAll, s.latUs...)
		pings = append(pings, s.pingUs...)
	}
	slices.Sort(latAll)
	rec.put("serve.load_model_ms", "ms", loadMs...)
	rec.put("serve.cache_hit_rate", "fraction", hit...)
	rec.put("serve.client_p99_us", "us", percentile(latAll, 99))
	rec.put("serve.rpc_overhead_us", "us", median(pings))
	rec.Sizes["serve_requests_traced"] = len(latAll)
}

func sum(xs []int) (s int) {
	for _, x := range xs {
		s += x
	}
	return s
}

// io times the façade's text parser on (at most 1e5 entries of) the tensor.
func (p *prober) io(t *sptensor.Tensor) {
	sub := sptensor.New(t.Dims...)
	for e := 0; e < min(t.NNZ(), 100_000); e++ {
		sub.Append(t.Index(e), t.Val[e])
	}
	var buf bytes.Buffer
	if err := distenc.WriteCOO(&buf, sub); err != nil {
		p.fail("distenc", err)
		return
	}
	d := p.time("distenc.ReadCOO", 3, func() {
		if _, err := distenc.ReadCOO(bytes.NewReader(buf.Bytes())); err != nil {
			p.fail("distenc", err)
		}
	})
	p.rec.put("distenc.read_coo_ns_per_nnz", "ns", ns(d, sub.NNZ()))
}

// kernels times the MTTKRP stage standalone — the plain single-threaded
// sptensor.MTTKRP as the reference point, then core.MTTKRPStage with the
// kernel chosen automatically and forced each way, and with TaskTrace on —
// and the PackedRows codec on a slab as large as one partition's rows.
func (p *prober) kernels(t *sptensor.Tensor, sp solveSpec, seed uint64) {
	factors := core.InitFactors(t.Dims, sp.rank, seed)
	scratch := make([]float64, sp.rank)
	d := p.time("sptensor.MTTKRP", 3, func() { sptensor.MTTKRP(t, factors, 0, scratch) })
	p.rec.put("sptensor.mttkrp_ns_per_nnz", "ns", ns(d, t.NNZ()))

	stage := func(kernel core.KernelMode, taskTrace bool) (time.Duration, error) {
		c, _, closeCluster, err := newCluster(false, rdd.Config{TaskTrace: taskTrace})
		if err != nil {
			return 0, err
		}
		defer closeCluster()
		opt := sp.options(seed)
		opt.Options = opt.Options.WithDefaults()
		opt.Kernel = kernel
		layout := core.NewLayout(t, opt)
		blocks := layout.BlocksRDD(c)
		blocks.Cache()
		if err := blocks.Materialize(); err != nil {
			return 0, err
		}
		defer blocks.Unpersist()
		run := func() {
			if _, _, e := core.MTTKRPStage(c, blocks, layout, factors, opt); e != nil {
				err = e
			}
		}
		run() // sizes the arenas
		name := "core.MTTKRPStage/" + kernel.String()
		if taskTrace {
			name += "/tasktrace"
		}
		return p.time(name, 5, run), err
	}
	var auto time.Duration
	for _, k := range []struct {
		metric string
		mode   core.KernelMode
	}{
		{"core.mttkrp_stage_ns_per_nnz", core.KernelAuto},
		{"core.mttkrp_stage_ns_per_nnz.fused", core.KernelFused},
		{"core.mttkrp_stage_ns_per_nnz.spmv", core.KernelSpMV},
	} {
		d, err := stage(k.mode, false)
		if err != nil {
			p.fail("core", err)
			return
		}
		if k.mode == core.KernelAuto {
			auto = d
		}
		p.rec.put(k.metric, "ns", ns(d, t.NNZ()))
	}
	traced, err := stage(core.KernelAuto, true)
	if err != nil {
		p.fail("rdd", err)
		return
	}
	p.rec.put("rdd.tasktrace_overhead_frac", "fraction", float64(traced)/float64(auto)-1)

	rows := max(t.Dims[0]/sp.parts, 1)
	rec := core.PackedRows{Mode: 0, Wire: rdd.WireVarint, Rows: make([]int32, rows), Vals: make([]float64, rows*sp.rank)}
	rng := rand.New(rand.NewPCG(seed, 3))
	for i := range rec.Rows {
		rec.Rows[i] = int32(i * sp.parts)
	}
	for i := range rec.Vals {
		rec.Vals[i] = rng.NormFloat64()
	}
	var buf []byte
	d = p.time("core.PackedRows.AppendRecord", 20, func() { buf = rec.AppendRecord(buf[:0]) })
	p.rec.put("core.packedrows_encode_ns_per_row", "ns", ns(d, rows))
	var arena rdd.Arena
	d = p.time("core.PackedRows.DecodeRecordArena", 20, func() {
		arena.Reset()
		var out core.PackedRows
		if _, err := out.DecodeRecordArena(&arena, buf); err != nil {
			p.fail("core", err)
		}
	})
	p.rec.put("core.packedrows_decode_ns_per_row", "ns", ns(d, rows))
}

// engine times an empty stage (what every stage pays before doing any work)
// and the length-prefixed framing both TCP planes share.
func (p *prober) engine() {
	c, _, closeCluster, err := newCluster(false, rdd.Config{})
	if err != nil {
		p.fail("rdd", err)
		return
	}
	defer closeCluster()
	const parts = 4
	empty := rdd.MapPartitions(rdd.FromPartitions(c, "empty", make([][]int, parts)), "noop",
		func(_ *rdd.TaskCtx, _ int, in []int) ([]int, error) { return in, nil })
	d := p.time("rdd.MapPartitions+Collect", 200, func() {
		if _, err := empty.Collect(); err != nil {
			p.fail("rdd", err)
		}
	})
	p.rec.put("rdd.stage_overhead_us", "us", float64(d)/float64(time.Microsecond))

	payload := make([]byte, 1<<20)
	var buf bytes.Buffer
	d = p.time("rdd.WriteFrame", 50, func() {
		buf.Reset()
		if err := rdd.WriteFrame(&buf, payload); err != nil {
			p.fail("rdd", err)
		}
	})
	p.rec.put("rdd.frame_write_MBps", "MB/s", mbps(len(payload), d))
	d = p.time("rdd.ReadFrame", 50, func() {
		if _, err := rdd.ReadFrame(bytes.NewReader(buf.Bytes()), rdd.DefaultMaxFrame); err != nil {
			p.fail("rdd", err)
		}
	})
	p.rec.put("rdd.frame_read_MBps", "MB/s", mbps(len(payload), d))
}

// transport starts two worker processes and times the block-store calls at
// this workload's block size: one iteration's shuffle volume over the P×P
// (map task, reduce partition) blocks it travels in.
func (p *prober) transport(sp solveSpec, s *solveRun) {
	t0 := time.Now()
	sw := p.tr.begin("transport.StartWorkers")
	cl, err := transport.StartWorkers(machines, transport.Options{})
	p.tr.end(sw)
	if err != nil {
		p.fail("transport", err)
		return
	}
	defer cl.Close()
	p.rec.put("transport.start_workers_ms", "ms", ms(time.Since(t0)))

	check := func(err error) {
		if err != nil {
			p.fail("transport", err)
		}
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	p.rec.put("transport.ping_us", "us", us(p.time("transport.Ping", 500, func() { check(cl.Ping(0)) })))

	blockBytes := max(int(s.shuffled/int64(s.iters))/(sp.parts*sp.parts), 64)
	p.rec.Sizes["transport_block_bytes"] = blockBytes
	id := rdd.BlockID{Kind: rdd.BlockShuffle, Owner: 1}
	block := make([]byte, blockBytes)
	p.rec.put("transport.put_us_p50", "us", us(p.time("transport.Put", 300, func() { check(cl.Put(0, id, block)) })))
	p.rec.put("transport.fetch_us_p50", "us", us(p.time("transport.Fetch", 300, func() {
		_, err := cl.Fetch(0, id)
		check(err)
	})))
	big := make([]byte, 1<<20)
	d := p.time("transport.Put/1MiB", 30, func() { check(cl.Put(1, id, big)) })
	p.rec.put("transport.put_MBps", "MB/s", mbps(len(big), d))
}

// algebra times the driver's dense kernels at this workload's mode-0 size.
func (p *prober) algebra(t *sptensor.Tensor, sims []*graph.Similarity, sp solveSpec) {
	rows := t.Dims[0]
	a := seededFactors([]int{rows}, sp.rank, 1)[0]
	var g *mat.Dense
	d := p.time("mat.Gram", 10, func() { g = mat.Gram(a) })
	p.rec.put("mat.gram_ns_per_row", "ns", ns(d, rows))
	d = p.time("mat.Mul", 10, func() { mat.Mul(a, g) })
	p.rec.put("mat.mul_ns_per_row", "ns", ns(d, rows))

	spec, err := probeSpectral(t, sims, sp.truncK)
	if err != nil {
		p.fail("graph", err)
		return
	}
	opt := core.Options{}.WithDefaults()
	d = p.time("graph.Spectral.InverseApply", 10, func() { spec.InverseApply(opt.Alpha, opt.Eta0, a) })
	p.rec.put("graph.inverse_apply_ns_per_row", "ns", ns(d, rows))
}

// baselines runs the same solve two more ways: on the other backend (the
// factors must hash equal — the backends move the same bytes) and with the
// single-threaded core.Complete (its RMSE must agree with the distributed
// run's to 1e-6; the distributed trace measures the residual before each
// update, so it lags the serial one by an iteration).
func (p *prober) baselines(t *sptensor.Tensor, sims []*graph.Similarity, sp solveSpec, j job, own *solveRun) {
	iterMs := func(points []metrics.ConvergencePoint) float64 {
		var deltas []float64
		for i := max(sp.warmup, 1); i < len(points); i++ {
			deltas = append(deltas, ms(points[i].Elapsed-points[i-1].Elapsed))
		}
		return median(deltas)
	}

	sibling := sp
	sibling.tcp = !sp.tcp
	name := "core.CompleteDistributed/inproc"
	if sibling.tcp {
		name = "core.CompleteDistributed/tcp"
	}
	s := p.tr.begin(name)
	c, _, closeCluster, err := newCluster(sibling.tcp, rdd.Config{})
	if err != nil {
		p.fail("transport", err)
		return
	}
	other, err := core.CompleteDistributed(c, t, sims, sibling.options(j.Seed))
	closeCluster()
	p.tr.end(s)
	if err != nil {
		p.fail("transport", err)
		return
	}
	if h := hashFactors(other.Model.Factors); h != own.hash {
		p.rec.problem("tcp and inproc factors differ: %016x vs %016x", h, own.hash)
	}
	ratio := iterMs(other.Trace) / median(own.iterMs)
	if sp.tcp {
		ratio = 1 / ratio
	}
	p.rec.put("transport.tcp_over_inproc", "ratio", ratio)

	s = p.tr.begin("core.Complete")
	serial, err := core.Complete(t, sims, sp.options(j.Seed).Options)
	p.tr.end(s)
	if err != nil {
		p.fail("core", err)
		return
	}
	serialMs := iterMs(serial.Trace)
	p.rec.put("core.serial_iter_ms", "ms", serialMs)
	p.rec.put("core.dist_over_serial", "ratio", median(own.iterMs)/serialMs)
	dist, ser := own.res.Trace[len(own.res.Trace)-1].TrainRMSE, serial.Trace[len(serial.Trace)-2].TrainRMSE
	if math.Abs(dist-ser) > 1e-6*math.Abs(ser) {
		p.rec.problem("distributed RMSE %.12g and serial RMSE %.12g differ by more than 1e-6", dist, ser)
	}
}

// serving times the model load and the predict path without the RPC around
// it: Model.PredictBatch with the default cache and with none, and the plain
// Kruskal.At the serve plane must stay bit-equal to.
func (p *prober) serving(sp serveSpec, ckpt string, seed uint64) {
	st, err := os.Stat(ckpt)
	if err != nil {
		p.fail("serve", err)
		return
	}
	d := p.time("core.ReadCheckpoint", 3, func() {
		if _, err := core.ReadCheckpoint(ckpt); err != nil {
			p.fail("core", err)
		}
	})
	p.rec.put("core.read_checkpoint_MBps", "MB/s", mbps(int(st.Size()), d))
	p.rec.Sizes["checkpoint_bytes"] = st.Size()

	const cells = 100_000
	var flat []int32
	for _, c := range []struct {
		metric string
		rows   int
	}{{"serve.predict_batch_ns_per_cell", cacheRows}, {"serve.predict_batch_ns_per_cell.nocache", 0}} {
		m, err := serve.LoadModel("bench", ckpt, "", c.rows)
		if err != nil {
			p.fail("serve", err)
			return
		}
		dims := m.Dims()
		if flat == nil {
			// The same cell distribution the load clients draw from.
			flat = make([]int32, cells*len(dims))
			cellSource(sp, dims, rand.New(rand.NewPCG(seed, 4)))(flat)
		}
		out := make([]float64, 0, sp.batch)
		step := sp.batch * len(dims)
		d := p.time(fmt.Sprintf("serve.Model.PredictBatch/cache=%d", c.rows), 3, func() {
			for off := 0; off+step <= len(flat); off += step {
				if out, err = m.PredictBatch(len(dims), flat[off:off+step], out[:0]); err != nil {
					p.fail("serve", err)
					return
				}
			}
		})
		p.rec.put(c.metric, "ns", ns(d, len(flat)/step*sp.batch))
		if c.rows == 0 {
			k := m.Kruskal()
			d := p.time("sptensor.Kruskal.At", 3, func() {
				for off := 0; off < len(flat); off += len(dims) {
					k.At(flat[off : off+len(dims)])
				}
			})
			p.rec.put("sptensor.kruskal_at_ns_per_cell", "ns", ns(d, len(flat)/len(dims)))
		}
	}
}
