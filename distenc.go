// Package distenc is a from-scratch Go implementation of DisTenC, the
// distributed algorithm for scalable tensor completion with auxiliary
// information of Ge et al. (ICDE 2018), together with everything it runs on:
// a Spark-like in-process dataflow engine with simulated machines, a sparse
// tensor and dense linear-algebra stack, the greedy block partitioner, and
// the four baselines of the paper's evaluation.
//
// # Quick start
//
//	t := distenc.NewTensor(100, 100, 100)
//	t.Append([]int32{3, 7, 1}, 4.5) // observed cells
//	res, err := distenc.Complete(t, nil, distenc.Options{Rank: 10})
//	// res.Model.At([]int32{i, j, k}) predicts any cell.
//
// For the distributed solver, create a simulated cluster first:
//
//	c, _ := distenc.NewCluster(distenc.ClusterConfig{Machines: 8})
//	defer c.Close()
//	res, err := distenc.CompleteDistributed(c, t, sims, distenc.DistOptions{})
//
// Auxiliary information is a per-mode similarity graph whose Laplacian
// regularizes that mode's factors (Eq. 4 of the paper):
//
//	sims := []*distenc.Similarity{distenc.TriDiagonalSimilarity(100), nil, nil}
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record of every figure and table.
package distenc

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"distenc/internal/core"
	"distenc/internal/graph"
	"distenc/internal/metrics"
	"distenc/internal/rdd"
	"distenc/internal/sptensor"
	"distenc/internal/synth"
	"distenc/internal/transport"
)

// Tensor is an N-mode sparse tensor in coordinate format.
type Tensor = sptensor.Tensor

// Kruskal is a rank-R CP model [[A(1),…,A(N)]]; its At method predicts any
// cell, i.e. it is the completed tensor.
type Kruskal = sptensor.Kruskal

// Similarity is per-mode auxiliary information: a sparse symmetric
// similarity graph whose Laplacian trace-regularizes the mode's factors.
type Similarity = graph.Similarity

// Options configures the solvers (see core.Options for field docs).
type Options = core.Options

// DistOptions configures the distributed solver: the block count, how the
// blocks are cut and the shuffle wire format (its Kernel field is inert — one
// kernel runs; see core.KernelMode).
type DistOptions = core.DistOptions

// Result reports a completed run: the learned model, convergence trace and
// timing.
type Result = core.Result

// Cluster is the simulated Spark-like cluster the distributed solver runs
// on.
type Cluster = rdd.Cluster

// ClusterConfig sizes a cluster: machine count, cores, per-machine memory
// budget, and Spark-like vs MapReduce-like execution.
type ClusterConfig = rdd.Config

// FaultPlan is a seeded chaos schedule for the simulated cluster: random
// task failures, a machine kill at a chosen stage, and straggler delays (set
// ClusterConfig.Fault).
type FaultPlan = rdd.FaultPlan

// RecoveryEvent is one recorded fault-tolerance action (see
// Cluster.Recoveries).
type RecoveryEvent = rdd.RecoveryEvent

// ParseFaultPlan builds a FaultPlan from the compact spec the -fault-plan
// CLI flag takes, e.g. "seed=7,failprob=0.02,kill=1@5".
var ParseFaultPlan = rdd.ParseFaultPlan

// WireFormat selects the shuffle record encoding: WireVarint ships
// delta-varint rows + f64 values (lossless, the default), WireF32 the same
// rows + f32 values with f64 accumulation (set DistOptions.Wire).
type WireFormat = rdd.WireFormat

// Wire formats for DistOptions.Wire.
const (
	WireVarint = rdd.WireVarint
	WireF32    = rdd.WireF32
)

// ParseWireFormat parses a -wire CLI flag value: "varint" (or "lossless") or
// "f32" (or "float32").
var ParseWireFormat = rdd.ParseWireFormat

// Transport abstracts how tasks move shuffle blocks between machines. Nil
// (the default) keeps everything in-process; set ClusterConfig.Transport to a
// TCP client to run against real worker processes.
type Transport = rdd.Transport

// TransportOptions tunes the TCP execution backend (frame limit, timeouts).
type TransportOptions = transport.Options

// TCPTransport is the TCP implementation of Transport: a client fronting one
// distenc-worker process per machine, with a connection to it per call in
// flight — one per machine is open from the start.
type TCPTransport = transport.Client

// StartTCPWorkers spawns n worker processes by re-execing the current
// binary — which must call WorkerHook first thing in main() — and returns a
// Transport connected to them. Close it after the cluster.
func StartTCPWorkers(n int, opts TransportOptions) (*TCPTransport, error) {
	return transport.StartWorkers(n, opts)
}

// DialTCPWorkers connects to already-running distenc-worker daemons, one
// per machine, index-aligned with machine IDs.
func DialTCPWorkers(addrs []string, opts TransportOptions) (*TCPTransport, error) {
	return transport.DialWorkers(addrs, opts)
}

// WorkerHook turns the current process into a TCP worker and never returns
// when the DISTENC_WORKER_LISTEN environment variable is set; otherwise it
// is a no-op. Any binary that calls StartTCPWorkers must call this first
// thing in main().
func WorkerHook() { transport.WorkerHook() }

// SpeculationConfig enables Spark-style speculative execution on the
// simulated cluster: tasks running far beyond the completed-task duration
// distribution get a backup attempt on a different machine, and the first
// attempt to finish wins (set ClusterConfig.Speculation).
type SpeculationConfig = rdd.SpeculationConfig

// ParseSpeculation builds a SpeculationConfig from the compact spec the
// -speculation CLI flag takes: "on" for the defaults, or
// "quantile=0.75,multiplier=1.5,min=10ms".
var ParseSpeculation = rdd.ParseSpeculation

// Trace is a per-iteration convergence record.
type Trace = metrics.Trace

// ConvergencePoint is one sample of a training trace (see Options.OnIteration).
type ConvergencePoint = metrics.ConvergencePoint

// Dataset bundles a generated workload: tensor, per-mode similarities and,
// when planted, ground truth.
type Dataset = synth.Dataset

// ErrOutOfMemory is returned (wrapped) when a simulated machine's memory
// budget is exceeded; detect it with errors.Is.
var ErrOutOfMemory = rdd.ErrOutOfMemory

// NewTensor returns an empty sparse tensor with the given mode sizes.
func NewTensor(dims ...int) *Tensor { return sptensor.New(dims...) }

// NewKruskal wraps factor matrices as a CP model.
var NewKruskal = sptensor.NewKruskal

// NewCluster builds a simulated cluster.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return rdd.NewCluster(cfg) }

// NewSimilarity returns an empty similarity over n objects; add edges with
// AddEdge.
func NewSimilarity(n int) *Similarity { return graph.NewSimilarity(n) }

// TriDiagonalSimilarity links consecutive indices (the paper's Eq. 17),
// appropriate when neighboring rows are expected to behave similarly.
func TriDiagonalSimilarity(n int) *Similarity { return graph.TriDiagonal(n) }

// Complete runs the single-process ADMM solver: DisTenC at one partition
// without the engine — the whole tensor is one block of the fused residual +
// MTTKRP kernel CompleteDistributed runs, and the factors equal
// CompleteDistributed's at DistOptions.Partitions = 1 bit for bit. sims may be
// nil.
func Complete(t *Tensor, sims []*Similarity, opt Options) (*Result, error) {
	return core.Complete(t, sims, opt)
}

// CompleteDistributed runs DisTenC (Algorithm 3) on the cluster.
func CompleteDistributed(c *Cluster, t *Tensor, sims []*Similarity, opt DistOptions) (*Result, error) {
	return core.CompleteDistributed(c, t, sims, opt)
}

// ErrNoCheckpoint is returned by the Resume functions when
// Options.CheckpointDir holds no checkpoint.
var ErrNoCheckpoint = core.ErrNoCheckpoint

// Resume continues an interrupted Complete run from the latest checkpoint in
// opt.CheckpointDir (see Options.CheckpointEvery); the resumed run's factors
// are bit-identical to an uninterrupted run's.
func Resume(t *Tensor, sims []*Similarity, opt Options) (*Result, error) {
	return core.Resume(t, sims, opt)
}

// ResumeDistributed continues an interrupted CompleteDistributed run from
// the latest checkpoint in opt.CheckpointDir.
func ResumeDistributed(c *Cluster, t *Tensor, sims []*Similarity, opt DistOptions) (*Result, error) {
	return core.ResumeDistributed(c, t, sims, opt)
}

// RMSE evaluates a model on held-out observations.
func RMSE(test *Tensor, model *Kruskal) float64 { return metrics.RMSE(test, model) }

// RelativeError is ‖X−Y‖_F/‖Y‖_F over the entries of truth.
func RelativeError(truth *Tensor, model *Kruskal) float64 {
	return metrics.RelativeError(truth, model)
}

// Dataset generators (the paper's synthetic workloads and the stand-ins for
// its real datasets; see DESIGN.md §2 for the substitution rationale).
var (
	// GenerateScalability draws a uniform random sparse tensor.
	GenerateScalability = synth.ScalabilityTensor
	// GenerateLinearFactor builds the reconstruction-error synthetic with
	// tri-diagonal similarities (§IV-A).
	GenerateLinearFactor = synth.LinearFactorDataset
	// GenerateNetflix builds the user-movie-time rating stand-in.
	GenerateNetflix = synth.NetflixSim
	// GenerateTwitter builds the creator-expert-topic stand-in.
	GenerateTwitter = synth.TwitterSim
	// GenerateFacebook builds the user-user-time link stand-in.
	GenerateFacebook = synth.FacebookSim
	// GenerateDBLP builds the author-paper-venue stand-in with planted
	// concepts.
	GenerateDBLP = synth.DBLPSim
	// GenerateDBLP4 builds the 4-mode author-paper-term-venue stand-in from
	// the paper's introduction.
	GenerateDBLP4 = synth.DBLP4Sim
)

// RecsysConfig sizes GenerateNetflix and GenerateTwitter.
type RecsysConfig = synth.RecsysConfig

// LinkPredConfig sizes GenerateFacebook.
type LinkPredConfig = synth.LinkPredConfig

// DBLPConfig sizes GenerateDBLP.
type DBLPConfig = synth.DBLPConfig

// DBLP4Config sizes GenerateDBLP4.
type DBLP4Config = synth.DBLP4Config

// ReadCOO parses a sparse tensor from the text format written by WriteCOO:
// a header line "dims I1 I2 … IN" followed by one "i1 i2 … iN value" line
// per entry (0-based indices). Blank lines and lines starting with '#' are
// ignored.
func ReadCOO(r io.Reader) (*Tensor, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var t *Tensor
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if t == nil {
			if fields[0] != "dims" || len(fields) < 2 {
				return nil, fmt.Errorf("distenc: line %d: expected \"dims I1 I2 …\" header, got %q", line, text)
			}
			dims := make([]int, len(fields)-1)
			for i, f := range fields[1:] {
				d, err := strconv.Atoi(f)
				if err != nil || d <= 0 {
					return nil, fmt.Errorf("distenc: line %d: bad dimension %q", line, f)
				}
				dims[i] = d
			}
			t = NewTensor(dims...)
			continue
		}
		if len(fields) != t.Order()+1 {
			return nil, fmt.Errorf("distenc: line %d: want %d indices + value, got %d fields", line, t.Order(), len(fields))
		}
		idx := make([]int32, t.Order())
		for i := 0; i < t.Order(); i++ {
			v, err := strconv.Atoi(fields[i])
			if err != nil || v < 0 || v >= t.Dims[i] {
				return nil, fmt.Errorf("distenc: line %d: bad index %q for mode %d", line, fields[i], i)
			}
			idx[i] = int32(v)
		}
		val, err := strconv.ParseFloat(fields[t.Order()], 64)
		if err != nil {
			return nil, fmt.Errorf("distenc: line %d: bad value %q", line, fields[t.Order()])
		}
		t.Append(idx, val)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if t == nil {
		return nil, fmt.Errorf("distenc: empty COO input")
	}
	return t, nil
}

// WriteCOO writes the ReadCOO text format.
func WriteCOO(w io.Writer, t *Tensor) error {
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, "dims")
	for _, d := range t.Dims {
		fmt.Fprintf(bw, " %d", d)
	}
	fmt.Fprintln(bw)
	for e := 0; e < t.NNZ(); e++ {
		for _, i := range t.Index(e) {
			fmt.Fprintf(bw, "%d ", i)
		}
		fmt.Fprintf(bw, "%g\n", t.Val[e])
	}
	return bw.Flush()
}

// ReadSimilarity parses a similarity graph: a header "nodes N" then one
// "i j weight" line per undirected edge.
func ReadSimilarity(r io.Reader) (*Similarity, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var s *Similarity
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if s == nil {
			if fields[0] != "nodes" || len(fields) != 2 {
				return nil, fmt.Errorf("distenc: line %d: expected \"nodes N\" header", line)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("distenc: line %d: bad node count %q", line, fields[1])
			}
			s = NewSimilarity(n)
			continue
		}
		if len(fields) != 3 {
			return nil, fmt.Errorf("distenc: line %d: want \"i j weight\"", line)
		}
		i, err1 := strconv.Atoi(fields[0])
		j, err2 := strconv.Atoi(fields[1])
		w, err3 := strconv.ParseFloat(fields[2], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("distenc: line %d: bad edge %q", line, text)
		}
		if i < 0 || j < 0 || i >= s.N || j >= s.N || i == j {
			return nil, fmt.Errorf("distenc: line %d: edge (%d,%d) out of range", line, i, j)
		}
		s.AddEdge(i, j, w)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if s == nil {
		return nil, fmt.Errorf("distenc: empty similarity input")
	}
	return s, nil
}

// WriteSimilarity writes the ReadSimilarity text format.
func WriteSimilarity(w io.Writer, s *Similarity) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "nodes %d\n", s.N)
	for i, edges := range s.Adj {
		for _, e := range edges {
			if int(e.To) > i { // write each undirected edge once
				fmt.Fprintf(bw, "%d %d %g\n", i, e.To, e.Weight)
			}
		}
	}
	return bw.Flush()
}
