package core

import (
	"errors"
	"os"
	"sync"
	"testing"

	"distenc/internal/leakcheck"
	"distenc/internal/metrics"
	"distenc/internal/rdd"
	"distenc/internal/synth"
	"distenc/internal/transport"
)

// TestMain lets the TCP-backend tests spawn real worker processes by
// re-execing this test binary: with the worker env set, WorkerHook serves
// blocks and exits before any test runs. leakcheck then holds every test —
// chaos and TCP e2e included — to the shutdown contract: Cluster.Close and
// transport teardown leave no goroutine behind.
func TestMain(m *testing.M) {
	transport.WorkerHook()
	os.Exit(leakcheck.Main(m))
}

// newTCPCluster builds a cluster whose blocks live in real worker processes,
// one per machine. Cleanup closes the cluster before the transport so block
// drops still have workers to talk to.
func newTCPCluster(t *testing.T, cfg rdd.Config) (*rdd.Cluster, *transport.Client) {
	t.Helper()
	tcl, err := transport.StartWorkers(cfg.Machines, transport.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Transport = tcl
	c, err := rdd.NewCluster(cfg)
	if err != nil {
		tcl.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		tcl.Close()
	})
	return c, tcl
}

// TestTCPBackendMatchesInproc is the cross-backend identity check: the same
// solve on the in-process backend and on real worker processes must produce
// bit-identical factors and the exact same exactly-once shuffle volume —
// the transport moves bytes, it never changes them or their accounting.
func TestTCPBackendMatchesInproc(t *testing.T) {
	d := synth.LinearFactorDataset([]int{20, 20, 20}, 2, 1500, 61)
	opts := Options{Rank: 3, MaxIter: 4, Tol: 0, Seed: 62}
	for _, kernel := range []KernelMode{KernelFused, KernelSpMV} {
		dopt := DistOptions{Options: opts, GridPartition: true, Kernel: kernel}

		inproc := rdd.MustNewCluster(rdd.Config{Machines: 3})
		want, err := CompleteDistributed(inproc, d.Tensor, d.Sims, dopt)
		if err != nil {
			t.Fatalf("kernel=%v inproc: %v", kernel, err)
		}

		tcp, _ := newTCPCluster(t, rdd.Config{Machines: 3})
		got, err := CompleteDistributed(tcp, d.Tensor, d.Sims, dopt)
		if err != nil {
			t.Fatalf("kernel=%v tcp: %v", kernel, err)
		}

		assertBitIdentical(t, "tcp vs inproc kernel="+kernel.String(), want.Model.Factors, got.Model.Factors)
		inB, tcpB := inproc.Metrics().BytesShuffled.Load(), tcp.Metrics().BytesShuffled.Load()
		if inB != tcpB {
			t.Errorf("kernel=%v: BytesShuffled inproc=%d tcp=%d — the backend seam leaked into the accounting",
				kernel, inB, tcpB)
		}
		inproc.Close()
	}
}

// TestChaosTCPSolveBitIdentical is the networked chaos acceptance test: a
// solve against real worker processes under a seeded fault plan — random
// task failures plus a machine kill that SIGKILLs an actual worker process
// mid-run — must complete with factors bit-identical to the failure-free TCP
// run and to the in-process run, with BytesShuffled bit-equal to both, for
// both MTTKRP kernels.
func TestChaosTCPSolveBitIdentical(t *testing.T) {
	d := synth.LinearFactorDataset([]int{20, 20, 20}, 2, 1500, 61)
	opts := Options{Rank: 3, MaxIter: 6, Tol: 0, Seed: 62}
	for _, kernel := range []KernelMode{KernelFused, KernelSpMV} {
		dopt := DistOptions{Options: opts, GridPartition: true, Kernel: kernel}

		inproc := rdd.MustNewCluster(rdd.Config{Machines: 3})
		inprocRes, err := CompleteDistributed(inproc, d.Tensor, d.Sims, dopt)
		if err != nil {
			t.Fatalf("kernel=%v inproc: %v", kernel, err)
		}

		clean, _ := newTCPCluster(t, rdd.Config{Machines: 3})
		want, err := CompleteDistributed(clean, d.Tensor, d.Sims, dopt)
		if err != nil {
			t.Fatalf("kernel=%v tcp clean: %v", kernel, err)
		}

		chaos, _ := newTCPCluster(t, rdd.Config{Machines: 3, Fault: &rdd.FaultPlan{
			Seed:            7,
			TaskFailureProb: 0.25,
			KillMachine:     1,
			KillAtStage:     5,
		}})
		got, err := CompleteDistributed(chaos, d.Tensor, d.Sims, dopt)
		if err != nil {
			t.Fatalf("kernel=%v tcp chaos: %v", kernel, err)
		}

		if retries := chaos.Metrics().TaskRetries.Load(); retries == 0 {
			t.Errorf("kernel=%v: chaos run retried no tasks", kernel)
		}
		if alive := chaos.HealthyMachines(); alive != 2 {
			t.Errorf("kernel=%v: HealthyMachines = %d after the planned kill, want 2", kernel, alive)
		}
		var kills int
		for _, ev := range chaos.Recoveries() {
			if ev.Kind == rdd.RecoveryMachineKill {
				kills++
			}
		}
		if kills != 1 {
			t.Errorf("kernel=%v: recovery log has %d machine kills, want 1", kernel, kills)
		}

		assertBitIdentical(t, "tcp chaos vs tcp clean kernel="+kernel.String(), want.Model.Factors, got.Model.Factors)
		assertBitIdentical(t, "tcp chaos vs inproc kernel="+kernel.String(), inprocRes.Model.Factors, got.Model.Factors)
		inB := inproc.Metrics().BytesShuffled.Load()
		cleanB := clean.Metrics().BytesShuffled.Load()
		chaosB := chaos.Metrics().BytesShuffled.Load()
		if chaosB != cleanB || cleanB != inB {
			t.Errorf("kernel=%v: BytesShuffled inproc=%d tcp-clean=%d tcp-chaos=%d — recovery traffic or the backend leaked into the exactly-once counter",
				kernel, inB, cleanB, chaosB)
		}
		inproc.Close()
	}
}

// TestWorkerProcessKillMidRun kills a worker process out from under the
// engine — not via the fault plan, but straight through the transport, the
// way a real machine dies — between iterations. The next fetch against it
// must come back as a retryable unreachable error, the engine must declare
// the machine lost and recompute from lineage, and the finished factors and
// exactly-once shuffle volume must match the clean run exactly.
func TestWorkerProcessKillMidRun(t *testing.T) {
	d := synth.LinearFactorDataset([]int{20, 20, 20}, 2, 1500, 61)
	opts := Options{Rank: 3, MaxIter: 6, Tol: 0, Seed: 62}
	dopt := DistOptions{Options: opts, GridPartition: true}

	clean := rdd.MustNewCluster(rdd.Config{Machines: 3})
	defer clean.Close()
	want, err := CompleteDistributed(clean, d.Tensor, d.Sims, dopt)
	if err != nil {
		t.Fatal(err)
	}

	c, tcl := newTCPCluster(t, rdd.Config{Machines: 3})
	killed := false
	kopt := dopt
	kopt.OnIteration = func(p metrics.ConvergencePoint) {
		if p.Iter == 2 && !killed {
			killed = true
			if err := tcl.Kill(1); err != nil {
				t.Errorf("killing worker 1: %v", err)
			}
		}
	}
	got, err := CompleteDistributed(c, d.Tensor, d.Sims, kopt)
	if err != nil {
		t.Fatal(err)
	}
	if !killed {
		t.Fatal("kill callback never fired")
	}

	if alive := c.HealthyMachines(); alive != 2 {
		t.Errorf("HealthyMachines = %d after the process kill, want 2", alive)
	}
	var kills int
	for _, ev := range c.Recoveries() {
		if ev.Kind == rdd.RecoveryMachineKill {
			kills++
		}
	}
	if kills != 1 {
		t.Errorf("recovery log has %d machine-kill events, want 1 (the engine never noticed the dead process)", kills)
	}
	if retries := c.Metrics().TaskRetries.Load(); retries == 0 {
		t.Error("no task retries: the unreachable worker did not surface as a retryable failure")
	}
	assertBitIdentical(t, "worker-process kill vs clean", want.Model.Factors, got.Model.Factors)
	if cleanB, gotB := clean.Metrics().BytesShuffled.Load(), c.Metrics().BytesShuffled.Load(); gotB != cleanB {
		t.Errorf("BytesShuffled = %d after recovery, clean = %d: recompute traffic double-counted", gotB, cleanB)
	}
}

// putRecorder remembers every shuffle block Put through it, and where.
type putRecorder struct {
	*transport.Client
	mu   sync.Mutex
	puts map[rdd.BlockID]int
}

func (p *putRecorder) Put(m int, id rdd.BlockID, data []byte) error {
	if id.Kind == rdd.BlockShuffle {
		p.mu.Lock()
		p.puts[id] = m
		p.mu.Unlock()
	}
	return p.Client.Put(m, id, data)
}

// TestTCPRetiredShuffleBlocksAreDropped is the worker-side half of the
// shuffle lifetime, against real worker processes: after a solve, every
// shuffle block any iteration stored is gone from the worker it was stored
// on — each iteration's exchange was retired with a Drop, not left for the
// processes' exit to clean up.
func TestTCPRetiredShuffleBlocksAreDropped(t *testing.T) {
	d := synth.LinearFactorDataset([]int{20, 20, 20}, 2, 1500, 61)
	tcl, err := transport.StartWorkers(3, transport.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tcl.Close()
	rec := &putRecorder{Client: tcl, puts: map[rdd.BlockID]int{}}
	c, err := rdd.NewCluster(rdd.Config{Machines: 3, Transport: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dopt := DistOptions{Options: Options{Rank: 3, MaxIter: 3, Tol: -1, Seed: 62}, GridPartition: true}
	if _, err := CompleteDistributed(c, d.Tensor, d.Sims, dopt); err != nil {
		t.Fatal(err)
	}
	owners := map[int64]bool{}
	for id, m := range rec.puts {
		owners[id.Owner] = true
		if _, err := tcl.Fetch(m, id); !errors.Is(err, rdd.ErrBlockNotFound) {
			t.Fatalf("block %v of a retired exchange is still on worker %d (Fetch: %v)", id, m, err)
		}
	}
	if len(owners) != dopt.MaxIter {
		t.Fatalf("recorded shuffle blocks of %d exchanges, want one per iteration (%d)", len(owners), dopt.MaxIter)
	}
}
