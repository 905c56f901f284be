package rdd

import (
	"errors"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func testCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func ints(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// sized returns n cacheable elements of 8 bytes each.
func sized(n int) []sizedThing {
	out := make([]sizedThing, n)
	for i := range out {
		out[i].n = 8
	}
	return out
}

func TestParallelizeCollectRoundTrip(t *testing.T) {
	c := testCluster(t, Config{Machines: 3, CoresPerMachine: 2})
	r := Parallelize(c, "nums", ints(100), 7)
	if r.parts != 7 {
		t.Fatalf("parts = %d", r.parts)
	}
	got, err := r.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("collected %d", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

func TestMapPartitionsSeesAllPartitions(t *testing.T) {
	c := testCluster(t, Config{})
	r := Parallelize(c, "nums", ints(10), 3)
	sums := MapPartitions(r, "psum", func(tc *TaskCtx, p int, in []int) ([]int, error) {
		s := 0
		for _, v := range in {
			s += v
		}
		return []int{s}, nil
	})
	got, err := sums.Collect()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, v := range got {
		total += v
	}
	if total != 45 || len(got) != 3 {
		t.Fatalf("partition sums = %v", got)
	}
}

func TestCacheReusesComputation(t *testing.T) {
	c := testCluster(t, Config{})
	computes := make(chan struct{}, 100)
	r := Parallelize(c, "src", sized(10), 2)
	counted := MapPartitions(r, "counted", func(tc *TaskCtx, p int, in []sizedThing) ([]sizedThing, error) {
		computes <- struct{}{}
		return in, nil
	}).Cache()
	for i := 0; i < 3; i++ {
		if _, err := counted.Collect(); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(computes); n != 2 {
		t.Fatalf("computed %d partitions, want 2 (cached)", n)
	}
	if c.UsedMemory(0)+c.UsedMemory(1)+c.UsedMemory(2)+c.UsedMemory(3) == 0 {
		t.Fatal("cache charged no memory")
	}
	counted.Unpersist()
	var used int64
	for m := 0; m < c.Machines(); m++ {
		used += c.UsedMemory(m)
	}
	if used != 0 {
		t.Fatalf("memory still charged after Unpersist: %d", used)
	}
}

func TestCacheIsNoOpInMapReduceMode(t *testing.T) {
	c := testCluster(t, Config{Mode: ModeMapReduce})
	computes := make(chan struct{}, 100)
	r := Parallelize(c, "src", ints(10), 2)
	counted := MapPartitions(r, "counted", func(tc *TaskCtx, p int, in []int) ([]int, error) {
		computes <- struct{}{}
		return in, nil
	}).Cache()
	for i := 0; i < 3; i++ {
		if _, err := counted.Collect(); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(computes); n != 6 {
		t.Fatalf("computed %d partitions, want 6 (no caching in MapReduce mode)", n)
	}
}

func TestOutOfMemoryOnCache(t *testing.T) {
	c := testCluster(t, Config{Machines: 1, MemoryPerMachine: 128})
	r := Parallelize(c, "big", sized(10000), 1).Cache()
	_, err := r.Collect()
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
}

func TestTransientChargeAndRelease(t *testing.T) {
	c := testCluster(t, Config{Machines: 1, MemoryPerMachine: 1000})
	r := Parallelize(c, "src", ints(4), 1)
	heavy := MapPartitions(r, "heavy", func(tc *TaskCtx, p int, in []int) ([]int, error) {
		if err := tc.ChargeTransient(900); err != nil {
			return nil, err
		}
		return in, nil
	})
	if _, err := heavy.Collect(); err != nil {
		t.Fatal(err)
	}
	if used := c.UsedMemory(0); used != 0 {
		t.Fatalf("transient memory not released: %d", used)
	}
	if c.PeakMemory(0) < 900 {
		t.Fatalf("peak %d, want >= 900", c.PeakMemory(0))
	}
	tooHeavy := MapPartitions(r, "tooheavy", func(tc *TaskCtx, p int, in []int) ([]int, error) {
		return nil, tc.ChargeTransient(2000)
	})
	if _, err := tooHeavy.Collect(); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
}

// TestTransientChargeReleasedBeforeStageReturns: a task's transient charge
// must be gone by the time its stage returns — the driver may start the next
// stage at once, and on a machine whose budget fits one task's charge a
// finished task still holding its own makes that stage's first charge fail
// with ErrOutOfMemory. Back-to-back stages under exactly that budget; no
// sleeps and nothing timed: the release is ordered before the stage's return
// or it is not. (Released after the partition resolved, as it used to be,
// 20 000 stages caught the late release in seven runs of eight.)
func TestTransientChargeReleasedBeforeStageReturns(t *testing.T) {
	const machines, charge = 4, 1000
	stages := 20_000
	if testing.Short() {
		stages = 2_000
	}
	c := testCluster(t, Config{Machines: machines, MemoryPerMachine: charge})
	src := Parallelize(c, "src", ints(machines), machines)
	for i := 0; i < stages; i++ {
		stage := MapPartitions(src, "charged", func(tc *TaskCtx, p int, in []int) ([]int, error) {
			return in, tc.ChargeTransient(charge)
		})
		if _, err := stage.Collect(); err != nil {
			t.Fatalf("stage %d: %v", i, err)
		}
		for m := 0; m < machines; m++ {
			if used := c.UsedMemory(m); used != 0 {
				t.Fatalf("stage %d returned with machine %d still charged %d bytes", i, m, used)
			}
		}
	}
}

func TestMapReduceModeSpillsToDisk(t *testing.T) {
	c := testCluster(t, Config{Mode: ModeMapReduce})
	var data []slabRec
	for i := 0; i < 100; i++ {
		data = append(data, kv(i%10, 1))
	}
	r := Parallelize(c, "pairs", data, 4)
	got, err := collectKeyed(keyedSum(r, "count", 3))
	if err != nil {
		t.Fatal(err)
	}
	assertKeyed(t, got, keyedWant(data))
	if c.Metrics().DiskBytesWrite.Load() == 0 || c.Metrics().DiskBytesRead.Load() == 0 {
		t.Fatalf("MapReduce mode charged no disk traffic: %+v", c.Metrics().Snapshot())
	}
}

func TestFaultInjectionRecoversViaLineage(t *testing.T) {
	c := testCluster(t, Config{Machines: 3, CoresPerMachine: 2})
	c.InjectTaskFailures("collect:victims", 2)
	r := Parallelize(c, "victims", ints(50), 5)
	got, err := r.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 {
		t.Fatalf("collected %d", len(got))
	}
	if c.Metrics().TaskRetries.Load() != 2 {
		t.Fatalf("retries = %d, want 2", c.Metrics().TaskRetries.Load())
	}
}

func TestFaultInjectionExhaustsRetries(t *testing.T) {
	c := testCluster(t, Config{Machines: 2})
	c.InjectTaskFailures("collect:doomed", 100)
	r := Parallelize(c, "doomed", ints(10), 2)
	if _, err := r.Collect(); err == nil {
		t.Fatal("expected failure after retry exhaustion")
	}
}

// TestCacheChargesWhatSizersDeclare: a cached partition costs the sum of its
// elements' declared sizes, and an element that declares none cannot be cached.
func TestCacheChargesWhatSizersDeclare(t *testing.T) {
	c := testCluster(t, Config{Machines: 1})
	r := Parallelize(c, "declared", []sizedThing{{10}, {20}}, 1).Cache()
	if err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	if got := c.UsedMemory(0); got != 30 {
		t.Fatalf("cached partition charged %d bytes, want 30", got)
	}
	r.Unpersist()
	err := Parallelize(c, "undeclared", ints(4), 1).Cache().Materialize()
	if err == nil || !strings.Contains(err.Error(), "Sizer") {
		t.Fatalf("caching ints: err = %v, want one naming Sizer", err)
	}
	if got := c.UsedMemory(0); got != 0 {
		t.Fatalf("refused cache left %d bytes charged", got)
	}
}

type sizedThing struct{ n int64 }

func (s sizedThing) SizeBytes() int64 { return s.n }

// Property: Collect preserves multiset and partition order for narrow chains.
func TestCollectOrderProperty(t *testing.T) {
	f := func(n uint8, parts uint8) bool {
		c := MustNewCluster(Config{})
		defer c.Close()
		data := ints(int(n))
		r := Parallelize(c, "ord", data, 1+int(parts%9))
		got, err := r.Collect()
		if err != nil || len(got) != len(data) {
			return false
		}
		return sort.IntsAreSorted(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestModeString(t *testing.T) {
	if ModeInMemory.String() != "spark" || ModeMapReduce.String() != "mapreduce" {
		t.Fatal("Mode.String")
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode string")
	}
}

func TestMaterializePins(t *testing.T) {
	c := testCluster(t, Config{})
	r := Parallelize(c, "m", sized(10), 3)
	if err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	var used int64
	for m := 0; m < c.Machines(); m++ {
		used += c.UsedMemory(m)
	}
	if used == 0 {
		t.Fatal("Materialize pinned nothing")
	}
}

func TestShuffleAfterShuffle(t *testing.T) {
	// Two chained wide dependencies must both materialize without deadlock,
	// even with a single core per machine.
	c := testCluster(t, Config{Machines: 2, CoresPerMachine: 1})
	var data []slabRec
	for i := 0; i < 60; i++ {
		data = append(data, kv(i%12, 1))
	}
	r := Parallelize(c, "pairs", data, 4)
	first := keyedSum(r, "s1", 3)
	rekeyed := MapPartitions(first, "rekey", func(_ *TaskCtx, _ int, in []slabRec) ([]slabRec, error) {
		out := make([]slabRec, len(in))
		for i, rec := range in {
			out[i] = slabRec{Tag: rec.Tag % 3, Vals: rec.Vals}
		}
		return out, nil
	})
	got, err := collectKeyed(keyedSum(rekeyed, "s2", 2))
	if err != nil {
		t.Fatal(err)
	}
	// Every first-stage key folds five 1s to the same value, so the order in
	// which the second stage sees them does not matter to the reference.
	var mid []slabRec
	for k, v := range keyedWant(data) {
		mid = append(mid, kv(k%3, v))
	}
	assertKeyed(t, got, keyedWant(mid))
	if s := c.Metrics().Snapshot(); s.Stages < 3 {
		t.Fatalf("expected >=3 stages, got %+v", s)
	}
}

func TestMetricsSnapshotSub(t *testing.T) {
	a := MetricsSnapshot{BytesShuffled: 10, TasksRun: 5}
	b := MetricsSnapshot{BytesShuffled: 4, TasksRun: 2}
	d := a.Sub(b)
	if d.BytesShuffled != 6 || d.TasksRun != 3 {
		t.Fatalf("Sub = %+v", d)
	}
}
