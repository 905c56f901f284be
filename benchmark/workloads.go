package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"time"

	"distenc"
	"distenc/internal/graph"
	"distenc/internal/mat"
	"distenc/internal/sptensor"
	"distenc/internal/synth"
)

// Every run of every workload is the same pipeline — read the tensor, build a
// cluster, solve, load a model into a server, answer predictions — because
// the benchmark contract has every run print every end-to-end metric. A
// workload stresses one stage at the size its rationale needs and runs the
// other as a small companion: solve-* workloads serve the model they just
// solved for a short window, serve-* workloads run the canary solve first.

// solveSpec is one solve stage: how its tensor is generated from the seed and
// the DistOptions the solver runs with (everything else is a library
// default).
type solveSpec struct {
	// facebook selects synth.FacebookSim (dims = users, users, days, with
	// both user-mode similarities); otherwise synth.ScalabilityTensor.
	facebook bool
	dims     []int
	nnz      int
	rank     int
	truncK   int
	parts    int
	iters    int
	// warmup iterations are excluded from iter_ms and the phase shares.
	warmup int
	tcp    bool
	// target × the iteration-0 train RMSE is the time_to_rmse_s target. 1
	// marks a tensor with nothing to fit (uniform random values): the target
	// is the initial RMSE and the metric is the time to the first iterate.
	// The others were chosen so the target falls mid-run on every seed tried
	// (the RMSE ratio per iteration repeats to 1e-4 across seeds).
	target float64
}

// serveSpec is one serve stage. dims == nil serves the model the solve stage
// just produced; otherwise a seeded U(0,1) factor set of that shape.
type serveSpec struct {
	dims  []int
	rank  int
	batch int
	// zipf > 0 draws row indices Zipf(s=zipf) per mode (row 0 hottest);
	// 0 draws them uniformly.
	zipf float64
	// window is the share of -seconds the load phases of a run's solveRepeats
	// repeats last together.
	window float64
}

type workload struct {
	name  string
	why   string
	solve solveSpec
	serve serveSpec
}

const (
	// machines × coresPerMachine engine workers and serveClients load
	// connections: never more load generators than the 2 cores of the
	// reference container.
	machines        = 2
	coresPerMachine = 1
	serveClients    = 2
	// cacheRows is cmd/distenc-serve's -cache-rows default.
	cacheRows = 4096
	// solveRepeats × (fresh cluster, fresh server) per run; a traced run
	// makes traceRepeats and spends the rest of its time in the probes.
	solveRepeats = 7
	traceRepeats = 2
	// sliceLen is about how long one slice of a serve window lasts: each
	// slice gives one sample of predict_cells_per_s and predict_p50_us.
	sliceLen = 250 * time.Millisecond
	// serveWarmup is how long the clients drive a fresh server before its
	// window starts: the row cache fills and the connections settle untimed.
	serveWarmup = 50 * time.Millisecond
)

// canarySolve is the companion solve of the serve-* workloads: small enough
// to cost a second, structured enough that its convergence target means
// something.
var canarySolve = solveSpec{
	facebook: true, dims: []int{4000, 4000, 5}, nnz: 100_000,
	rank: 10, truncK: 20, parts: 4, iters: 20, warmup: 2, target: 0.9931,
}

// companionServe is the companion serve stage of the solve-* workloads.
var companionServe = serveSpec{batch: 256, window: 0.25}

// serveModelDims at R=32 is the 64 MB factor set (16× the 4 MiB per-core L2 of the
// reference container) both serve-* workloads answer from.
var serveModelDims = []int{200_000, 50_000, 100}

var workloads = []workload{
	{
		name: "solve-scatter",
		why:  "uniform 1.5e4^3 tensor, 5e5 nnz: every entry is its own fiber, so the fused kernel and slab encode/shuffle dominate (Fig. 3b regime)",
		solve: solveSpec{dims: []int{15_000, 15_000, 15_000}, nnz: 500_000,
			rank: 10, parts: 4, iters: 12, warmup: 2, target: 1},
		serve: companionServe,
	},
	{
		name: "solve-fiber",
		why:  "facebook-sim with a length-5 mode, 50 nnz per user row: long fibers, the SpMV/auto-selector regime, low shuffle, planted structure for the convergence target",
		solve: solveSpec{facebook: true, dims: []int{12_000, 12_000, 5}, nnz: 600_000,
			rank: 10, truncK: 20, parts: 4, iters: 14, warmup: 2, target: 0.9963},
		serve: companionServe,
	},
	{
		name: "solve-highdim",
		why:  "facebook-sim with 6 nnz per row at R=16: the I*R^2 driver algebra and spectral update outweigh the kernel (Fig. 3a regime), highest bytes/nnz and RSS",
		solve: solveSpec{facebook: true, dims: []int{25_000, 25_000, 5}, nnz: 150_000,
			rank: 16, truncK: 20, parts: 4, iters: 10, warmup: 2, target: 0.9992},
		serve: companionServe,
	},
	{
		name: "solve-tcp-small",
		why:  "2000^3 tensor, 2e4 nnz, 8 partitions over 2 TCP worker processes: small blocks and many round trips, the only workload that goes through internal/transport",
		solve: solveSpec{dims: []int{2000, 2000, 2000}, nnz: 20_000,
			rank: 10, parts: 8, iters: 60, warmup: 10, tcp: true, target: 1},
		serve: companionServe,
	},
	{
		name:  "serve-batch",
		why:   "64 MB of factors (16x L2), batch 256, uniform random cells: row gather, dot and LRU dominate and the working set exceeds the default cache",
		solve: canarySolve,
		serve: serveSpec{dims: serveModelDims, rank: 32, batch: 256, window: 0.7},
	},
	{
		name:  "serve-single",
		why:   "same model, batch 1, Zipf(1.2) rows: frame read/parse/encode/flush dominate and the hot set hits the LRU, the opposite use of the same layer",
		solve: canarySolve,
		serve: serveSpec{dims: serveModelDims, rank: 32, batch: 1, zipf: 1.2, window: 0.7},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// quick shrinks a workload to about 1/50 of its inputs for the smoke test:
// every code path still runs, no number means anything.
func (w workload) quick() workload {
	s := &w.solve
	s.dims = append([]int(nil), s.dims...)
	for i, d := range s.dims {
		if d > 10 {
			s.dims[i] = d / 10
		}
	}
	s.nnz /= 50
	s.iters, s.warmup = 5, 1
	s.target = 1 // a 5-iteration run need not reach the full-size target
	if w.serve.dims != nil {
		w.serve.dims = []int{4000, 1000, 100}
	}
	return w
}

// metricDef declares one metric; BENCHMARK.json repeats the end-to-end and
// per-layer lists and bench_test.go holds the two together.
type metricDef struct {
	name   string
	unit   string
	better string
	// bound is the share of the baseline median by which the metric may
	// worsen before -compare calls it a regression (end-to-end only).
	bound float64
}

// endToEnd is what a user of the system sees. error_rate is the tenth: it is
// printed and compared but cannot be listed in BENCHMARK.json, whose metrics
// are gated as a share of a median that for error_rate is 0 — there it
// travels as the result line's failed/attempted.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"iter_ms", "ms", "lower", 0.25},
	{"time_to_rmse_s", "s", "lower", 0.25},
	{"shuffle_bytes_per_nnz_iter", "B", "lower", 0.02},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"predict_cells_per_s", "1/s", "higher", 0.25},
	{"predict_p50_us", "us", "lower", 0.25},
	{"solve_repeats_ok", "count", "higher", 0.01},
	{"predict_checked_ok", "fraction", "higher", 0.001},
}

const errorRate = "error_rate"

// perLayer is the -trace ledger, one block per module of the repository.
var perLayer = []metricDef{
	{name: "distenc.read_binary_ns_per_nnz", unit: "ns", better: "lower"},
	{name: "distenc.read_coo_ns_per_nnz", unit: "ns", better: "lower"},
	{name: "part.greedy_ns_per_index", unit: "ns", better: "lower"},
	{name: "part.load_imbalance", unit: "ratio", better: "lower"},
	{name: "sptensor.mttkrp_ns_per_nnz", unit: "ns", better: "lower"},
	{name: "sptensor.kruskal_at_ns_per_cell", unit: "ns", better: "lower"},
	{name: "core.layout_ns_per_nnz", unit: "ns", better: "lower"},
	{name: "core.mttkrp_stage_ns_per_nnz", unit: "ns", better: "lower"},
	{name: "core.mttkrp_stage_ns_per_nnz.fused", unit: "ns", better: "lower"},
	{name: "core.mttkrp_stage_ns_per_nnz.spmv", unit: "ns", better: "lower"},
	{name: "core.phase_map_frac", unit: "fraction", better: "lower"},
	{name: "core.phase_reduce_frac", unit: "fraction", better: "lower"},
	{name: "core.phase_gram_frac", unit: "fraction", better: "lower"},
	{name: "core.phase_driver_frac", unit: "fraction", better: "lower"},
	{name: "core.driver_ms_per_iter", unit: "ms", better: "lower"},
	{name: "core.packedrows_encode_ns_per_row", unit: "ns", better: "lower"},
	{name: "core.packedrows_decode_ns_per_row", unit: "ns", better: "lower"},
	{name: "core.iters_to_target", unit: "count", better: "lower"},
	{name: "core.iter_p90_ms", unit: "ms", better: "lower"},
	{name: "core.serial_iter_ms", unit: "ms", better: "lower"},
	{name: "core.dist_over_serial", unit: "ratio", better: "lower"},
	{name: "core.read_checkpoint_MBps", unit: "MB/s", better: "higher"},
	{name: "rdd.stage_overhead_us", unit: "us", better: "lower"},
	{name: "rdd.shuffle_bytes_per_nnz_iter", unit: "B", better: "lower"},
	{name: "rdd.map_skew", unit: "ratio", better: "lower"},
	{name: "rdd.peak_machine_bytes", unit: "B", better: "lower"},
	{name: "rdd.heap_growth_mb_per_iter", unit: "MB", better: "lower"},
	{name: "rdd.task_retries", unit: "count", better: "lower"},
	{name: "rdd.frame_write_MBps", unit: "MB/s", better: "higher"},
	{name: "rdd.frame_read_MBps", unit: "MB/s", better: "higher"},
	{name: "rdd.tasktrace_overhead_frac", unit: "fraction", better: "lower"},
	{name: "transport.start_workers_ms", unit: "ms", better: "lower"},
	{name: "transport.ping_us", unit: "us", better: "lower"},
	{name: "transport.put_us_p50", unit: "us", better: "lower"},
	{name: "transport.fetch_us_p50", unit: "us", better: "lower"},
	{name: "transport.put_MBps", unit: "MB/s", better: "higher"},
	{name: "transport.tcp_over_inproc", unit: "ratio", better: "lower"},
	{name: "mat.gram_ns_per_row", unit: "ns", better: "lower"},
	{name: "mat.mul_ns_per_row", unit: "ns", better: "lower"},
	{name: "graph.truncated_spectral_ms", unit: "ms", better: "lower"},
	{name: "graph.inverse_apply_ns_per_row", unit: "ns", better: "lower"},
	{name: "serve.load_model_ms", unit: "ms", better: "lower"},
	{name: "serve.predict_batch_ns_per_cell", unit: "ns", better: "lower"},
	{name: "serve.predict_batch_ns_per_cell.nocache", unit: "ns", better: "lower"},
	{name: "serve.cache_hit_rate", unit: "fraction", better: "higher"},
	{name: "serve.rpc_overhead_us", unit: "us", better: "lower"},
	{name: "serve.client_p99_us", unit: "us", better: "lower"},
	{name: "bench.trace_overhead_frac", unit: "fraction", better: "lower"},
}

// Input files of one run, inside its scratch directory.
const (
	tensorFile = "tensor.dtz"
	modelFile  = "model.ckpt"
)

func simFile(mode int) string { return fmt.Sprintf("sim-mode%d.txt", mode) }

// generate builds the solve stage's tensor and similarities from the seed.
func (s solveSpec) generate(seed uint64) (*sptensor.Tensor, []*graph.Similarity) {
	if !s.facebook {
		return synth.ScalabilityTensor(s.dims, s.nnz, seed), nil
	}
	d := synth.FacebookSim(synth.LinkPredConfig{
		Users: s.dims[0], Days: s.dims[2], Rank: 5, NNZ: s.nnz, Noise: 0.05, Seed: seed,
	})
	// d.Sims is not used: synth draws it while ranging over a map, so the
	// same seed gives a different graph in every process. The tensor and the
	// planted communities are reproducible; the similarities are redrawn
	// from them here, in block order.
	rng := rand.New(rand.NewPCG(seed, 0x51e5))
	users := d.Concepts[0]
	return d.Tensor, []*graph.Similarity{communitySimilarity(rng, users, 3), communitySimilarity(rng, users, 3), nil}
}

// communitySimilarity links every object to about deg others of its planted
// community with weight 1 — synth's construction with a fixed block order.
func communitySimilarity(rng *rand.Rand, labels []int, deg int) *graph.Similarity {
	byBlock := make([][]int, slices.Max(labels)+1)
	for i, b := range labels {
		byBlock[b] = append(byBlock[b], i)
	}
	s := graph.NewSimilarity(len(labels))
	seen := map[[2]int]bool{}
	for _, members := range byBlock {
		for _, i := range members {
			for range deg {
				j := members[rng.IntN(len(members))]
				key := [2]int{min(i, j), max(i, j)}
				if i == j || seen[key] {
					continue
				}
				seen[key] = true
				s.AddEdge(i, j, 1)
			}
		}
	}
	return s
}

// writeInputs generates a workload's inputs from the seed into dir: the
// tensor in the DTZ1 binary format, one text file per similarity, and for the
// serve-* workloads the seeded model image.
func writeInputs(w workload, seed uint64, dir string) error {
	t, sims := w.solve.generate(seed)
	if err := writeFile(filepath.Join(dir, tensorFile), func(bw *bufio.Writer) error {
		return distenc.WriteBinary(bw, t)
	}); err != nil {
		return err
	}
	for n, s := range sims {
		if s == nil {
			continue
		}
		if err := writeFile(filepath.Join(dir, simFile(n)), func(bw *bufio.Writer) error {
			return distenc.WriteSimilarity(bw, s)
		}); err != nil {
			return err
		}
	}
	if w.serve.dims == nil {
		return nil
	}
	return writeCheckpoint(filepath.Join(dir, modelFile), seededFactors(w.serve.dims, w.serve.rank, seed), nil)
}

func writeFile(path string, write func(*bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := write(bw); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// seededFactors draws U(0,1) factor matrices of the given shape.
func seededFactors(dims []int, rank int, seed uint64) []*mat.Dense {
	rng := rand.New(rand.NewPCG(seed, 0x5e7e))
	out := make([]*mat.Dense, len(dims))
	for n, d := range dims {
		f := mat.NewDense(d, rank)
		data := f.Data()
		for i := range data {
			data[i] = rng.Float64()
		}
		out[n] = f
	}
	return out
}

// writeCheckpoint writes a DTCK v1 solver image (the layout documented in
// internal/core/checkpoint.go, whose writer is not exported): header, mode
// sizes, then the factor, auxiliary and multiplier groups row-major. A nil
// aux writes zeros for that group; multipliers are always zeros — a served
// model reads only the factors.
func writeCheckpoint(path string, factors, aux []*mat.Dense) error {
	return writeFile(path, func(bw *bufio.Writer) error {
		rank := factors[0].Cols()
		head := []any{uint32(0x4454434b), uint32(1), uint64(0), float64(1), uint32(len(factors)), uint32(rank)}
		for _, f := range factors {
			head = append(head, uint32(f.Rows()))
		}
		for _, v := range head {
			if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
				return err
			}
		}
		var buf []byte
		for _, group := range [][]*mat.Dense{factors, aux, nil} {
			for n, f := range factors {
				buf = buf[:0]
				if group == nil {
					buf = append(buf, make([]byte, 8*len(f.Data()))...)
				} else {
					for _, v := range group[n].Data() {
						buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
					}
				}
				if _, err := bw.Write(buf); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// hashTensor digests a tensor's shape, indices and value bits.
func hashTensor(t *sptensor.Tensor) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, d := range t.Dims {
		binary.LittleEndian.PutUint64(b[:], uint64(d))
		h.Write(b[:])
	}
	for _, i := range t.Idx {
		binary.LittleEndian.PutUint32(b[:4], uint32(i))
		h.Write(b[:4])
	}
	for _, v := range t.Val {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// hashFactors is FNV-64a over the Float64bits of every factor entry.
func hashFactors(factors []*mat.Dense) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, f := range factors {
		for _, v := range f.Data() {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}
