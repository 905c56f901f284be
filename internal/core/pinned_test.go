package core

import (
	"bufio"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"distenc/internal/graph"
	"distenc/internal/mat"
	"distenc/internal/rdd"
	"distenc/internal/sptensor"
	"distenc/internal/synth"
)

var updatePinned = flag.Bool("update", false, "re-record "+pinnedFile+" from this build")

const pinnedFile = "testdata/pinned_hashes.txt"

// pinnedTwin is a small twin of one benchmark workload's shape (see
// benchmark/workloads.go): a uniform tensor where every entry is its own
// fiber, or a facebook-sim tensor with a short third mode and community
// similarities on the two user modes.
type pinnedTwin struct {
	name     string
	facebook bool
	dims     []int
	nnz      int
	rank     int
	// tcp also solves the twin at P = 4 over spawned worker processes.
	tcp bool
}

var pinnedTwins = []pinnedTwin{
	{name: "scatter", dims: []int{300, 300, 300}, nnz: 6000, rank: 10, tcp: true},
	{name: "fiber", facebook: true, dims: []int{240, 240, 5}, nnz: 12000, rank: 10},
	{name: "highdim", facebook: true, dims: []int{1000, 1000, 5}, nnz: 6000, rank: 16},
	{name: "canary", facebook: true, dims: []int{400, 400, 5}, nnz: 10000, rank: 10},
}

func (tw pinnedTwin) generate() (*sptensor.Tensor, []*graph.Similarity) {
	if !tw.facebook {
		return synth.ScalabilityTensor(tw.dims, tw.nnz, 5), nil
	}
	d := synth.FacebookSim(synth.LinkPredConfig{Users: tw.dims[0], Days: tw.dims[2], Rank: 5, NNZ: tw.nnz, Noise: 0.05, Seed: 5})
	// Both user modes get the 12-community, degree-3 similarity of the
	// driver benchmarks (communitySimilarity), drawn from a seed of their own.
	rng := rand.New(rand.NewPCG(5, 0x51e5))
	return d.Tensor, []*graph.Similarity{communitySimilarity(tw.dims[0], 12, 3, rng), communitySimilarity(tw.dims[1], 12, 3, rng), nil}
}

// pinnedHash is FNV-64a over the Float64bits of every factor and Aux entry,
// of every trace point's TrainRMSE and MaxDelta, then Iters, Converged and
// the summed BytesShuffled.
func pinnedHash(res *Result) string {
	h := fnv.New64a()
	var b []byte
	for _, group := range [][]*mat.Dense{res.Model.Factors, res.Aux} {
		for _, m := range group {
			for _, v := range m.Data() {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
			}
		}
	}
	for _, p := range res.Trace {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.TrainRMSE))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.MaxDelta))
	}
	var shuffled int64
	for _, ph := range res.Phases {
		shuffled += ph.BytesShuffled
	}
	converged := uint64(0)
	if res.Converged {
		converged = 1
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(res.Iters))
	b = binary.LittleEndian.AppendUint64(b, converged)
	b = binary.LittleEndian.AppendUint64(b, uint64(shuffled))
	h.Write(b)
	return fmt.Sprintf("%016x iters=%d bytes=%d", h.Sum64(), res.Iters, shuffled)
}

// TestPinnedFactorHashes holds every solver path to hashes recorded in
// testdata: each twin solved serial and at P = 4 in-process, and one twin at
// P = 4 over TCP workers. The race build runs every loop's Go body, the
// default amd64 build the AVX2 bodies; both must meet the same recorded
// value. A change that moves a bit on purpose re-records the table with
//
//	go test ./internal/core -run TestPinnedFactorHashes -update
func TestPinnedFactorHashes(t *testing.T) {
	got := map[string]string{}
	for _, tw := range pinnedTwins {
		ts, sims := tw.generate()
		opt := Options{Rank: tw.rank, MaxIter: 4, Tol: -1, Seed: 6}
		res, err := Complete(ts, sims, opt)
		if err != nil {
			t.Fatalf("%s/serial: %v", tw.name, err)
		}
		got[tw.name+"/serial"] = pinnedHash(res)
		dopt := DistOptions{Options: opt, Partitions: 4, GridPartition: true}
		inproc := rdd.MustNewCluster(rdd.Config{Machines: 2})
		t.Cleanup(func() { inproc.Close() })
		clusters := map[string]*rdd.Cluster{"p4": inproc}
		if tw.tcp {
			clusters["p4-tcp"], _ = newTCPCluster(t, rdd.Config{Machines: 2})
		}
		for key, c := range clusters {
			res, err := CompleteDistributed(c, ts, sims, dopt)
			if err != nil {
				t.Fatalf("%s/%s: %v", tw.name, key, err)
			}
			got[tw.name+"/"+key] = pinnedHash(res)
		}
	}
	if *updatePinned {
		var sb strings.Builder
		sb.WriteString("# name fnv64a(factors, aux, trace, iters, converged, bytes) iters bytes; re-record with -update\n")
		for _, k := range slices.Sorted(maps.Keys(got)) {
			fmt.Fprintf(&sb, "%s %s\n", k, got[k])
		}
		if err := os.MkdirAll(filepath.Dir(pinnedFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinnedFile, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(pinnedFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			k, v, _ := strings.Cut(line, " ")
			want[k] = v
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for k, g := range got {
		if want[k] != g {
			t.Errorf("%s: %s, recorded %q", k, g, want[k])
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: recorded but not solved", k)
		}
	}
}
