package transport

import (
	"encoding/binary"
	"errors"
	"iter"
	"sync/atomic"
	"testing"
	"time"

	"distenc/internal/rdd"
)

// blockCount is the tests' view of a worker's store: how many blocks it holds.
func (s *Server) blockCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, blocks := range s.mem {
		n += len(blocks)
	}
	return n
}

// countingTransport counts the shuffle blocks put through it.
type countingTransport struct {
	*Client
	puts atomic.Int64
}

func (ct *countingTransport) PutBlocks(m int, ids []rdd.BlockID, images [][]byte) error {
	for _, id := range ids {
		if id.Kind == rdd.BlockShuffle {
			ct.puts.Add(1)
		}
	}
	return ct.Client.PutBlocks(m, ids, images)
}

// intRec is the test's shuffle record: one int32, framed as four bytes.
type intRec int32

func (r *intRec) RecordSize() int { return 4 }
func (r *intRec) AppendRecord(buf []byte) []byte {
	return binary.LittleEndian.AppendUint32(buf, uint32(*r))
}
func (r *intRec) DecodeRecord(data []byte) ([]byte, error) {
	if len(data) < 4 {
		return nil, errors.New("short intRec frame")
	}
	*r = intRec(binary.LittleEndian.Uint32(data))
	return data[4:], nil
}

// mapGate parks one map attempt: the first attempt of map task 0 to arrive
// while it is armed signals entered and waits for release before it encodes
// anything; its backup is never held.
var mapGate struct {
	armed            atomic.Bool
	entered, release chan struct{}
}

// TestRetiredShuffleLeavesNoBlockOnAnyWorker drives an engine cluster over
// three in-process workers. While an exchange lives its blocks sit in the
// workers' stores; after it retires every store is empty — including after a
// speculative duplicate map attempt that outlived the stage Puts its blocks
// when the Drop has already gone out — and Close retires what is left.
func TestRetiredShuffleLeavesNoBlockOnAnyWorker(t *testing.T) {
	const machines, parts = 3, 6
	servers := make([]*Server, machines)
	addrs := make([]string, machines)
	for m := range servers {
		s, err := NewServer("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go s.Serve()
		t.Cleanup(s.Shutdown)
		servers[m], addrs[m] = s, s.Addr()
	}
	cl, err := DialWorkers(addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	tp := &countingTransport{Client: cl}
	c, err := rdd.NewCluster(rdd.Config{
		Machines: machines, CoresPerMachine: 2, Transport: tp,
		Speculation: rdd.SpeculationConfig{Enabled: true, Quantile: 0.5, Multiplier: 2, MinDuration: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	stored := func() (n int) {
		for _, s := range servers {
			n += s.blockCount()
		}
		return n
	}

	mapGate.entered, mapGate.release = make(chan struct{}), make(chan struct{})
	round := func() *rdd.RDD[int] {
		src := rdd.FromPartitions(c, "src", make([][]int, parts))
		//distenc:capture-ok mapGate -- the test's gate, not data: it exists to park one attempt of the closure
		return rdd.ShuffleMap(src, "sum-map", "sum-reduce", parts,
			func(tc *rdd.TaskCtx, mp int, _ []int) ([][]intRec, error) {
				if mp == 0 && mapGate.armed.CompareAndSwap(true, false) {
					close(mapGate.entered)
					<-mapGate.release
				}
				out := make([][]intRec, parts)
				for rp := range out {
					out[rp] = []intRec{intRec(mp), intRec(rp)}
				}
				return out, nil
			},
			func(tc *rdd.TaskCtx, rp int, blocks iter.Seq2[[]intRec, error]) ([]int, error) {
				sum := 0
				for block, err := range blocks {
					if err != nil {
						return nil, err
					}
					for _, v := range block {
						sum += int(v)
					}
				}
				return []int{sum}, nil
			})
	}
	collect := func(r *rdd.RDD[int]) {
		t.Helper()
		got, err := r.Collect()
		if err != nil {
			t.Fatal(err)
		}
		for rp, sum := range got {
			if want := parts*(parts-1)/2 + parts*rp; sum != want {
				t.Fatalf("reduce partition %d = %d, want %d", rp, sum, want)
			}
		}
	}

	for i := 0; i < 3; i++ {
		r := round()
		collect(r)
		// (At least: a backup attempt launched on timing noise stores a second
		// copy of its blocks on its own machine.)
		if n := stored(); n < parts*parts {
			t.Fatalf("round %d: workers hold %d blocks while the exchange lives, want at least %d", i, n, parts*parts)
		}
		r.Unpersist()
		c.Quiesce() // such a backup may still be cleaning up after itself
		if n := stored(); n != 0 {
			t.Fatalf("round %d: %d block(s) of a retired exchange survive on the workers", i, n)
		}
	}

	// The zombie: parked until its exchange has retired and the Drop is out.
	mapGate.armed.Store(true)
	r := round()
	collect(r)
	<-mapGate.entered
	r.Unpersist()
	if n := stored(); n != 0 {
		t.Fatalf("%d block(s) survive retirement", n)
	}
	puts := tp.puts.Load()
	close(mapGate.release)
	c.Quiesce()
	if got := tp.puts.Load() - puts; got != parts {
		t.Fatalf("the late duplicate Put %d blocks, want %d: the case under test did not occur", got, parts)
	}
	if n := stored(); n != 0 {
		t.Fatalf("%d block(s) Put by a duplicate attempt after the Drop survive on the workers", n)
	}

	// An exchange nobody retired is retired by Close.
	collect(round())
	if stored() == 0 {
		t.Fatal("unretired exchange holds no blocks")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if n := stored(); n != 0 {
		t.Fatalf("%d block(s) survive Cluster.Close", n)
	}
}
