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

// DistOptions configures the distributed solver: the block count and how the
// blocks are cut (its Kernel field is inert — one kernel runs; see
// core.KernelMode).
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
