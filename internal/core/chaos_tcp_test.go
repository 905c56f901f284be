package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
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
	dopt := DistOptions{Options: opts, GridPartition: true}

	inproc := rdd.MustNewCluster(rdd.Config{Machines: 3})
	defer inproc.Close()
	want, err := CompleteDistributed(inproc, d.Tensor, d.Sims, dopt)
	if err != nil {
		t.Fatalf("inproc: %v", err)
	}

	tcp, _ := newTCPCluster(t, rdd.Config{Machines: 3})
	got, err := CompleteDistributed(tcp, d.Tensor, d.Sims, dopt)
	if err != nil {
		t.Fatalf("tcp: %v", err)
	}

	assertBitIdentical(t, "tcp vs inproc", want.Model.Factors, got.Model.Factors)
	inB, tcpB := inproc.Metrics().BytesShuffled.Load(), tcp.Metrics().BytesShuffled.Load()
	if inB != tcpB {
		t.Errorf("BytesShuffled inproc=%d tcp=%d — the backend seam leaked into the accounting", inB, tcpB)
	}
}

// TestChaosTCPSolveBitIdentical is the networked chaos acceptance test: a
// solve against real worker processes under a seeded fault plan — random
// task failures plus a machine kill that SIGKILLs an actual worker process
// mid-run — must complete with factors bit-identical to the failure-free TCP
// run and to the in-process run, with BytesShuffled bit-equal to both.
func TestChaosTCPSolveBitIdentical(t *testing.T) {
	d := synth.LinearFactorDataset([]int{20, 20, 20}, 2, 1500, 61)
	opts := Options{Rank: 3, MaxIter: 6, Tol: 0, Seed: 62}
	dopt := DistOptions{Options: opts, GridPartition: true}

	inproc := rdd.MustNewCluster(rdd.Config{Machines: 3})
	defer inproc.Close()
	inprocRes, err := CompleteDistributed(inproc, d.Tensor, d.Sims, dopt)
	if err != nil {
		t.Fatalf("inproc: %v", err)
	}

	clean, _ := newTCPCluster(t, rdd.Config{Machines: 3})
	want, err := CompleteDistributed(clean, d.Tensor, d.Sims, dopt)
	if err != nil {
		t.Fatalf("tcp clean: %v", err)
	}

	chaos, _ := newTCPCluster(t, rdd.Config{Machines: 3, Fault: &rdd.FaultPlan{
		Seed:            7,
		TaskFailureProb: 0.25,
		KillMachine:     1,
		KillAtStage:     5,
	}})
	got, err := CompleteDistributed(chaos, d.Tensor, d.Sims, dopt)
	if err != nil {
		t.Fatalf("tcp chaos: %v", err)
	}

	if retries := chaos.Metrics().TaskRetries.Load(); retries == 0 {
		t.Error("chaos run retried no tasks")
	}
	if alive := chaos.HealthyMachines(); alive != 2 {
		t.Errorf("HealthyMachines = %d after the planned kill, want 2", alive)
	}
	var kills int
	for _, ev := range chaos.Recoveries() {
		if ev.Kind == rdd.RecoveryMachineKill {
			kills++
		}
	}
	if kills != 1 {
		t.Errorf("recovery log has %d machine kills, want 1", kills)
	}

	assertBitIdentical(t, "tcp chaos vs tcp clean", want.Model.Factors, got.Model.Factors)
	assertBitIdentical(t, "tcp chaos vs inproc", inprocRes.Model.Factors, got.Model.Factors)
	inB := inproc.Metrics().BytesShuffled.Load()
	cleanB := clean.Metrics().BytesShuffled.Load()
	chaosB := chaos.Metrics().BytesShuffled.Load()
	if chaosB != cleanB || cleanB != inB {
		t.Errorf("BytesShuffled inproc=%d tcp-clean=%d tcp-chaos=%d — recovery traffic or the backend leaked into the exactly-once counter",
			inB, cleanB, chaosB)
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

// putRecorder remembers every shuffle block put through it, and where.
type putRecorder struct {
	*transport.Client
	mu   sync.Mutex
	puts map[rdd.BlockID]int
}

func (p *putRecorder) PutBlocks(m int, ids []rdd.BlockID, images [][]byte) error {
	p.mu.Lock()
	for _, id := range ids {
		if id.Kind == rdd.BlockShuffle {
			p.puts[id] = m
		}
	}
	p.mu.Unlock()
	return p.Client.PutBlocks(m, ids, images)
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

// inprocWorkers runs n transport.Servers in this process — real sockets, no
// processes to spawn — and returns them with a client fronting them.
func inprocWorkers(t *testing.T, n int) ([]*transport.Server, *transport.Client) {
	t.Helper()
	servers := make([]*transport.Server, n)
	addrs := make([]string, n)
	for m := range servers {
		s, err := transport.NewServer("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go s.Serve()
		t.Cleanup(s.Shutdown)
		servers[m], addrs[m] = s, s.Addr()
	}
	tcl, err := transport.DialWorkers(addrs, transport.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tcl.Close() })
	return servers, tcl
}

// TestTCPRoundTripsPerIterationAndFlatAllocation prices the network with
// counts: a P = 8 solve over W = 2 workers (in-process transport.Servers, real
// sockets) may spend at most P PutBlocks (one per map task), P·W FetchBlocks
// (one per reduce task per worker holding any of its blocks) and W Drops per
// iteration — not a round trip per block — and from the second iteration on
// every block image, the map side's and the reduce side's fetch buffers alike,
// comes out of the pool the first iteration filled. (Tasks run one at a time
// here, which makes that exact: each finds the images it returned an
// iteration ago. Concurrent tasks share images, so a run allocates fewer —
// never more than one iteration's blocks — but may still be topping the pool
// up to its peak concurrent demand after iteration 2.)
func TestTCPRoundTripsPerIterationAndFlatAllocation(t *testing.T) {
	const workers, parts = 2, 8
	_, tcl := inprocWorkers(t, workers)
	c, err := rdd.NewCluster(rdd.Config{Machines: workers, Transport: tcl, SerializeTasks: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	d := synth.LinearFactorDataset([]int{40, 40, 40}, 2, 4000, 61)
	m := c.Metrics()
	var calls, allocated []int64
	dopt := DistOptions{Options: Options{Rank: 3, MaxIter: 6, Tol: -1, Seed: 62}, Partitions: parts, GridPartition: true}
	dopt.OnIteration = func(metrics.ConvergencePoint) {
		calls = append(calls, m.TransportCalls.Load())
		allocated = append(allocated, m.BlocksAllocated.Load())
	}
	if _, err := CompleteDistributed(c, d.Tensor, d.Sims, dopt); err != nil {
		t.Fatal(err)
	}
	if len(calls) != dopt.MaxIter {
		t.Fatalf("%d iterations reported, want %d", len(calls), dopt.MaxIter)
	}
	const bound = parts + parts*workers + workers
	prev := int64(0)
	for i, n := range calls {
		if per := n - prev; per > bound || per < parts+workers {
			t.Errorf("iteration %d made %d transport calls, want between %d and %d (P + P·W + W)", i+1, per, parts+workers, bound)
		}
		prev = n
	}
	if allocated[0] == 0 || allocated[0] > parts*parts {
		t.Errorf("first iteration allocated %d block images, want 1..%d", allocated[0], parts*parts)
	}
	for i, n := range allocated {
		if n != allocated[0] {
			t.Errorf("iteration %d: %d block images allocated so far, %d after the first: the pool is not recycling them", i+1, n, allocated[0])
		}
	}
	if out, in := m.TransportBytesOut.Load(), m.TransportBytesIn.Load(); out == 0 || in != out {
		t.Errorf("TransportBytesOut = %d, TransportBytesIn = %d: a clean run fetches every byte it stored exactly once", out, in)
	}
	if sum := c.Summary(); !strings.Contains(sum, fmt.Sprintf("transport: %d calls, ", m.TransportCalls.Load())) {
		t.Errorf("Summary does not price the network:\n%s", sum)
	}
}

// TestTCPConnectionsBoundedByTaskSlots: a call holds a connection for one round
// trip and gives it back, so a worker never has more connections than calls
// were in flight to it at once — and the scheduler bounds those at Machines ×
// CoresPerMachine task slots. With one core per machine that is what the
// client opened when it was built, so the solve itself dials nothing: no
// iteration's time depends on which calls happened to overlap first.
func TestTCPConnectionsBoundedByTaskSlots(t *testing.T) {
	const workers, parts = 2, 8
	servers, tcl := inprocWorkers(t, workers)
	for m, s := range servers {
		if n := s.Accepted(); n != workers {
			t.Fatalf("worker %d accepted %d connections before the first call, want %d (one per machine)", m, n, workers)
		}
	}
	c, err := rdd.NewCluster(rdd.Config{Machines: workers, CoresPerMachine: 1, Transport: tcl})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	d := synth.LinearFactorDataset([]int{40, 40, 40}, 2, 4000, 61)
	dopt := DistOptions{Options: Options{Rank: 3, MaxIter: 6, Tol: -1, Seed: 62}, Partitions: parts, GridPartition: true}
	if _, err := CompleteDistributed(c, d.Tensor, d.Sims, dopt); err != nil {
		t.Fatal(err)
	}
	if calls := c.Metrics().TransportCalls.Load(); calls < int64(dopt.MaxIter*parts) {
		t.Fatalf("%d transport calls: the solve did not go through the workers", calls)
	}
	for m, s := range servers {
		if n := s.Accepted(); n != workers*1 {
			t.Errorf("worker %d accepted %d connections by the end of the solve, want the %d (Machines × CoresPerMachine) it started with", m, n, workers)
		}
	}
}

// killingTransport SIGKILLs a worker process from inside the k-th vectored
// shuffle call of one kind — put or fetch — addressed to it: the request is
// already on its way down the stack when its worker dies.
type killingTransport struct {
	*transport.Client
	fetch bool
	k     int64
	n     atomic.Int64
}

func (kt *killingTransport) PutBlocks(m int, ids []rdd.BlockID, images [][]byte) error {
	if !kt.fetch && ids[0].Kind == rdd.BlockShuffle && kt.n.Add(1) == kt.k {
		kt.Client.Kill(m)
	}
	return kt.Client.PutBlocks(m, ids, images)
}

func (kt *killingTransport) FetchBlocks(m int, ids []rdd.BlockID, images [][]byte) error {
	if kt.fetch && kt.n.Add(1) == kt.k {
		kt.Client.Kill(m)
	}
	return kt.Client.FetchBlocks(m, ids, images)
}

// TestTCPKillInsideVectoredCall is chaos at the vectored seam: a real worker
// process dies inside a PutBlocks (a map task loses its own machine with its
// whole output in flight) and, in a second run, inside a FetchBlocks (a reduce
// task loses a source worker with part of its input in flight). Either way
// the call must come back as the retryable unreachable error, the engine must
// declare that one machine lost — once — and recompute from lineage, and the
// factors and the exactly-once shuffle volume must equal the clean run's.
func TestTCPKillInsideVectoredCall(t *testing.T) {
	d := synth.LinearFactorDataset([]int{20, 20, 20}, 2, 1500, 61)
	dopt := DistOptions{Options: Options{Rank: 3, MaxIter: 6, Tol: 0, Seed: 62}, Partitions: 6, GridPartition: true}

	clean := rdd.MustNewCluster(rdd.Config{Machines: 3})
	defer clean.Close()
	want, err := CompleteDistributed(clean, d.Tensor, d.Sims, dopt)
	if err != nil {
		t.Fatal(err)
	}

	for _, kt := range []*killingTransport{
		{k: 9},               // the third map task of the second iteration
		{fetch: true, k: 25}, // a reduce task of the second iteration (≤ 18 fetches an iteration)
	} {
		name := "PutBlocks"
		if kt.fetch {
			name = "FetchBlocks"
		}
		t.Run(name, func(t *testing.T) {
			tcl, err := transport.StartWorkers(3, transport.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer tcl.Close()
			kt.Client = tcl
			c, err := rdd.NewCluster(rdd.Config{Machines: 3, Transport: kt})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			got, err := CompleteDistributed(c, d.Tensor, d.Sims, dopt)
			if err != nil {
				t.Fatal(err)
			}
			if kt.n.Load() < kt.k {
				t.Fatalf("only %d calls were made: the kill at call %d never fired", kt.n.Load(), kt.k)
			}
			c.Quiesce() // the machine-lost eviction runs on its own goroutine
			var kills int
			for _, ev := range c.Recoveries() {
				if ev.Kind == rdd.RecoveryMachineKill {
					kills++
				}
			}
			if kills != 1 || c.HealthyMachines() != 2 {
				t.Errorf("%d machine-kill recovery events and %d healthy machines, want 1 and 2", kills, c.HealthyMachines())
			}
			if c.Metrics().TaskRetries.Load() == 0 {
				t.Error("no task retries: the dead worker did not surface as a retryable failure")
			}
			assertBitIdentical(t, "kill inside "+name+" vs clean", want.Model.Factors, got.Model.Factors)
			if cleanB, gotB := clean.Metrics().BytesShuffled.Load(), c.Metrics().BytesShuffled.Load(); gotB != cleanB {
				t.Errorf("BytesShuffled = %d after recovery, clean = %d", gotB, cleanB)
			}
		})
	}
}

// corruptingTransport rewrites the first shuffle block fetched for reduce
// partition 0 the way a faulty worker could: decoded, edited and re-encoded
// at its original length, so the engine's fetched-length check passes.
type corruptingTransport struct {
	*transport.Client
	rewrite func(recs []PackedRows)
	once    sync.Once
	err     error // set when the edit could not keep the length
}

func (ct *corruptingTransport) FetchBlocks(m int, ids []rdd.BlockID, images [][]byte) error {
	if err := ct.Client.FetchBlocks(m, ids, images); err != nil {
		return err
	}
	for i, id := range ids {
		if id.Kind == rdd.BlockShuffle && id.Reduce == 0 {
			ct.once.Do(func() { ct.err = ct.corrupt(images[i]) })
		}
	}
	return nil
}

func (ct *corruptingTransport) corrupt(image []byte) error {
	n, used := binary.Uvarint(image)
	recs := make([]PackedRows, n)
	data := image[used:]
	var arena rdd.Arena
	for i := range recs {
		var err error
		if data, err = recs[i].DecodeRecordArena(&arena, data); err != nil {
			return err
		}
	}
	ct.rewrite(recs)
	buf := binary.AppendUvarint(nil, n)
	for i := range recs {
		buf = recs[i].AppendRecord(buf)
	}
	if len(buf) != len(image) {
		return fmt.Errorf("rewritten block is %d bytes, fetched %d", len(buf), len(image))
	}
	copy(image, buf)
	return nil
}

// TestTCPCorruptShuffleBlockFailsTheSolve feeds the reduce side four blocks
// that decode cleanly and hold the fetched length but break the layout: a
// mode past the order, a row one past the partition's range, an ‖E‖²
// record without its value, and a slab one value short of its rows. Each
// must come back from the solve as an error naming reduce partition 0 and
// the mode, not panic in the reduce task.
func TestTCPCorruptShuffleBlockFailsTheSolve(t *testing.T) {
	const rank, parts = 2, 4
	// Rows under 64 and slabs under 128 values keep every varint one byte,
	// so each edit below keeps the block's length.
	d := synth.LinearFactorDataset([]int{24, 24, 24}, 2, 1500, 61)
	dopt := DistOptions{Options: Options{Rank: rank, MaxIter: 2, Tol: -1, Seed: 62}, Partitions: parts, GridPartition: true}
	bounds := testLayout(d.Tensor, rank, parts, true, false).modeBounds
	firstSlab := func(recs []PackedRows) *PackedRows {
		return &recs[slices.IndexFunc(recs, func(r PackedRows) bool { return r.Mode >= 0 && len(r.Rows) > 0 })]
	}
	for _, tc := range []struct {
		name, want string
		rewrite    func(recs []PackedRows)
	}{
		{"mode-past-order", `reduce partition 0: record of mode 7`, func(recs []PackedRows) {
			firstSlab(recs).Mode = 7
		}},
		{"row-past-range", `reduce partition 0: mode \d row (\d+) outside its rows \[0, \d+\)`, func(recs []PackedRows) {
			rec := firstSlab(recs)
			_, hi := bounds[rec.Mode].Range(0)
			shift := int32(hi) - rec.Rows[len(rec.Rows)-1]
			for i := range rec.Rows {
				rec.Rows[i] += shift
			}
		}},
		{"norm-without-value", `reduce partition 0: mode -1 \(‖E‖²\) record carries 0 values`, func(recs []PackedRows) {
			rec := &recs[slices.IndexFunc(recs, func(r PackedRows) bool { return r.Mode == -1 })]
			rec.Rows, rec.Vals = make([]int32, 8), nil // eight one-byte rows for the eight-byte value
		}},
		{"values-short", `reduce partition 0: mode \d record has \d+ values for \d+ rows at rank 2`, func(recs []PackedRows) {
			rec := firstSlab(recs)
			last := rec.Rows[len(rec.Rows)-1]
			rec.Vals = rec.Vals[:len(rec.Vals)-1]
			for range 8 {
				rec.Rows = append(rec.Rows, last)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, tcl := inprocWorkers(t, 2)
			ct := &corruptingTransport{Client: tcl, rewrite: tc.rewrite}
			c, err := rdd.NewCluster(rdd.Config{Machines: 2, Transport: ct})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			_, err = CompleteDistributed(c, d.Tensor, d.Sims, dopt)
			if ct.err != nil {
				t.Fatal(ct.err)
			}
			if err == nil || !regexp.MustCompile(tc.want).MatchString(err.Error()) {
				t.Fatalf("solve over a rewritten block returned %v, want an error matching %q", err, tc.want)
			}
		})
	}
}
