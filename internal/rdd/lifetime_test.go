package rdd

import (
	"encoding/binary"
	"errors"
	"fmt"
	"iter"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// foldRound builds one ShuffleMap round over parts×parts blocks of slabRec
// records whose values depend on round, folded per reduce partition by an
// order-sensitive recurrence, so a block delivered out of map order, twice,
// or with another round's bytes changes the result's bits. foldWant is the
// same recurrence computed directly.
func foldRound(c *Cluster, parts, round int) *RDD[float64] {
	src := FromPartitions(c, "src", make([][]int, parts))
	return ShuffleMap(src, "fold-map", "fold-reduce", parts,
		func(tc *TaskCtx, mp int, _ []int) ([][]slabRec, error) {
			out := make([][]slabRec, parts)
			for rp := range out {
				out[rp] = []slabRec{{Tag: int32(mp), Vals: roundVals(round, mp, rp)}}
			}
			return out, nil
		},
		func(tc *TaskCtx, rp int, blocks iter.Seq2[[]slabRec, error]) ([]float64, error) {
			acc := 0.0
			for block, err := range blocks {
				if err != nil {
					return nil, err
				}
				for _, rec := range block {
					for _, v := range rec.Vals {
						acc = acc/2 + v
					}
				}
			}
			return []float64{acc}, nil
		})
}

func roundVals(round, mp, rp int) []float64 {
	vals := make([]float64, 40)
	for i := range vals {
		vals[i] = float64(round*10_000 + mp*100 + rp*10 + i)
	}
	return vals
}

func foldWant(parts, round int) []float64 {
	want := make([]float64, parts)
	for rp := range want {
		for mp := 0; mp < parts; mp++ {
			for _, v := range roundVals(round, mp, rp) {
				want[rp] = want[rp]/2 + v
			}
		}
	}
	return want
}

// kv is one keyed record for keyedSum: key k, value v.
func kv(k, v int) slabRec { return slabRec{Tag: int32(k), Vals: []float64{float64(v)}} }

// keyedSum is the shuffle job of the fault, speculation and trace tests, which
// need a wide dependency but not a particular one: a per-key sum over
// ShuffleMap, key k going to reduce partition k mod parts. Its addition is the
// order-sensitive acc = 3·acc + v over a key's values in arrival order, so a
// block that is lost, delivered twice or out of map order changes the result
// (integers this small survive slabRec's fixed-point codec exactly). Both
// stages carry name: "shuffle-write:"+name, then whatever action reads it.
func keyedSum(r *RDD[slabRec], name string, parts int) *RDD[slabRec] {
	return ShuffleMap(r, name, name, parts,
		func(tc *TaskCtx, mp int, in []slabRec) ([][]slabRec, error) {
			out := make([][]slabRec, parts)
			for _, rec := range in {
				rp := int(rec.Tag) % parts
				out[rp] = append(out[rp], rec)
			}
			return out, nil
		},
		func(tc *TaskCtx, rp int, blocks iter.Seq2[[]slabRec, error]) ([]slabRec, error) {
			var out []slabRec
			at := map[int32]int{}
			for block, err := range blocks {
				if err != nil {
					return nil, err
				}
				for _, rec := range block {
					i, seen := at[rec.Tag]
					if !seen {
						i = len(out)
						at[rec.Tag] = i
						out = append(out, slabRec{Tag: rec.Tag, Vals: []float64{0}})
					}
					out[i].Vals[0] = 3*out[i].Vals[0] + rec.Vals[0]
				}
			}
			return out, nil
		})
}

// keyedWant is keyedSum computed directly. Parallelize splits data into
// contiguous ranges and blocks arrive in map-partition order, so a key's
// values arrive in data order.
func keyedWant(data []slabRec) map[int]int {
	want := map[int]int{}
	for _, rec := range data {
		want[int(rec.Tag)] = 3*want[int(rec.Tag)] + int(rec.Vals[0])
	}
	return want
}

// collectKeyed collects a keyedSum result into key → value.
func collectKeyed(r *RDD[slabRec]) (map[int]int, error) {
	recs, err := r.Collect()
	if err != nil {
		return nil, err
	}
	got := make(map[int]int, len(recs))
	for _, rec := range recs {
		got[int(rec.Tag)] = int(rec.Vals[0])
	}
	return got, nil
}

// assertKeyed fails unless got holds exactly want's keys and values.
func assertKeyed(t *testing.T, got, want map[int]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %d = %d, want %d", k, got[k], v)
		}
	}
}

func assertBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: partition %d = %v, want %v (not bit-identical)", label, i, got[i], want[i])
		}
	}
}

func (c *Cluster) evictorCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.evictors)
}

func countRecoveries(c *Cluster, kinds ...string) int {
	n := 0
	for _, ev := range c.Recoveries() {
		for _, k := range kinds {
			if ev.Kind == k {
				n++
			}
		}
	}
	return n
}

// TestShuffleLifetimeIsOneRound runs 200 shuffle rounds, each retired before
// the next starts: the kill-notification set and the live-bytes gauge must
// return to their resting values after every round (a leak fails here on a
// count, not on a heap reading), and from the second round on every block
// image must come out of the pool.
func TestShuffleLifetimeIsOneRound(t *testing.T) {
	const parts, rounds = 4, 200
	c := testCluster(t, Config{Machines: 2})
	m := c.Metrics()
	resting := c.evictorCount()
	var blockBytes int64
	for round := 0; round < rounds; round++ {
		r := foldRound(c, parts, round)
		got, err := r.Collect()
		if err != nil {
			t.Fatal(err)
		}
		assertBits(t, fmt.Sprintf("round %d", round), got, foldWant(parts, round))
		if n := c.evictorCount(); n != resting+1 {
			t.Fatalf("round %d: %d evictors registered while the exchange lives, want %d", round, n, resting+1)
		}
		live := m.ShuffleLiveBytes.Load()
		if round == 0 {
			blockBytes = live
		}
		if live == 0 || live != blockBytes {
			t.Fatalf("round %d: ShuffleLiveBytes = %d before retirement, want this round's %d", round, live, blockBytes)
		}
		r.Unpersist()
		if n := c.evictorCount(); n != resting {
			t.Fatalf("round %d: %d evictors after retirement, want %d", round, n, resting)
		}
		if live := m.ShuffleLiveBytes.Load(); live != 0 {
			t.Fatalf("round %d: ShuffleLiveBytes = %d after retirement, want 0", round, live)
		}
		if _, err := r.Collect(); !errors.Is(err, errRetired) {
			t.Fatalf("round %d: reading a retired exchange returned %v, want errRetired", round, err)
		}
	}
	if got := m.BlocksAllocated.Load(); got != parts*parts {
		t.Errorf("BlocksAllocated = %d, want %d: only the first round may allocate images", got, parts*parts)
	}
	if got := m.BlocksRecycled.Load(); got != (rounds-1)*parts*parts {
		t.Errorf("BlocksRecycled = %d, want %d", got, (rounds-1)*parts*parts)
	}
}

// TestRetireKillDuringAndAfter restates the recovery contract around
// retirement. A machine killed while the consuming stage still has the
// exchange (map outputs committed, nothing fetched yet) loses map outputs
// that are recomputed from lineage bit-identically; a machine killed after
// retirement finds nothing to evict and records no shuffle recovery event.
func TestRetireKillDuringAndAfter(t *testing.T) {
	const parts = 6
	c := testCluster(t, Config{Machines: 3})
	r := foldRound(c, parts, 7)
	if err := r.ensureDeps(); err != nil {
		t.Fatal(err)
	}
	c.KillMachine(0)
	got, err := r.Collect()
	if err != nil {
		t.Fatal(err)
	}
	assertBits(t, "kill during the consuming stage", got, foldWant(parts, 7))
	if countRecoveries(c, RecoveryShuffleEvict) != 1 || countRecoveries(c, RecoveryShuffleRecompute) == 0 {
		t.Fatalf("kill before retirement: want one shuffle-evict and some shuffle-recompute events, got %+v", c.Recoveries())
	}
	r.Unpersist()
	before := countRecoveries(c, RecoveryShuffleEvict, RecoveryShuffleRecompute)
	c.KillMachine(1)
	if after := countRecoveries(c, RecoveryShuffleEvict, RecoveryShuffleRecompute); after != before {
		t.Fatalf("kill after retirement recorded %d shuffle recovery event(s): a retired exchange has nothing to evict", after-before)
	}
	// The survivor runs the next round alone, from a pool the kill left intact.
	next := foldRound(c, parts, 8)
	defer next.Unpersist()
	if got, err = next.Collect(); err != nil {
		t.Fatal(err)
	}
	assertBits(t, "round after the kills", got, foldWant(parts, 8))
}

// gateRec is slabRec with a gate in its decoder: while armed, the first
// decode of the record tagged gateTag signals entered and blocks until
// release — after reading the tag and before reading the values, i.e. holding
// the encoded image half-read. It parks one reduce attempt inside a block.
type gateRec struct{ slabRec }

// gateTag marks the record map part gateMap sends to reduce partition 0 in
// TestRetireLeavesImagesToZombieReader (tags there are mp*parts+rp, parts 8).
const gateMap, gateTag = 2, 2 * 8

var gate struct {
	armed            atomic.Bool
	entered, release chan struct{}
}

func (g *gateRec) DecodeRecord(data []byte) ([]byte, error) {
	if int32(binary.LittleEndian.Uint32(data)) == gateTag && gate.armed.CompareAndSwap(true, false) {
		close(gate.entered)
		<-gate.release
	}
	return g.slabRec.DecodeRecord(data)
}

// TestRetireLeavesImagesToZombieReader is the reader rule under speculation.
// A reduce attempt is parked mid-decode of an in-memory image, its backup
// wins the partition, the stage commits and the exchange is retired while
// the zombie still holds the image; a second, same-shape round then encodes.
// The zombie must wake to the bytes it was reading (its image was left to
// the GC, not recycled under it), and its next fetch must fail as retired —
// no nil index, no stale block.
func TestRetireLeavesImagesToZombieReader(t *testing.T) {
	const parts = 8
	c := testCluster(t, Config{
		Machines: 4, CoresPerMachine: 2,
		Speculation: SpeculationConfig{Enabled: true, Quantile: 0.5, Multiplier: 2, MinDuration: 5 * time.Millisecond},
	})
	gate.entered, gate.release = make(chan struct{}), make(chan struct{})

	// What each attempt of round 1's partition 0 decoded for the gated record
	// and how its loop ended, by machine: the first to reach the gate parks
	// (normally the primary), the other wins the partition.
	type attempt struct {
		saw []float64
		err error
	}
	var mu sync.Mutex
	attempts := map[int]*attempt{}
	round := func(n int) *RDD[float64] {
		src := FromPartitions(c, "src", make([][]int, parts))
		return ShuffleMap(src, "gate-map", "gate-reduce", parts,
			func(tc *TaskCtx, mp int, _ []int) ([][]gateRec, error) {
				out := make([][]gateRec, parts)
				for rp := range out {
					out[rp] = []gateRec{{slabRec{Tag: int32(mp*parts + rp), Vals: roundVals(n, mp, rp)}}}
				}
				return out, nil
			},
			func(tc *TaskCtx, rp int, blocks iter.Seq2[[]gateRec, error]) ([]float64, error) {
				var me *attempt
				if n == 1 && rp == 0 {
					me = &attempt{}
					mu.Lock()
					attempts[tc.Machine] = me
					mu.Unlock()
				}
				acc := 0.0
				for block, err := range blocks {
					if err != nil {
						if me != nil {
							me.err = err
						}
						return nil, err
					}
					for _, rec := range block {
						if me != nil && rec.Tag == gateTag {
							me.saw = append([]float64(nil), rec.Vals...)
						}
						for _, v := range rec.Vals {
							acc = acc/2 + v
						}
					}
				}
				return []float64{acc}, nil
			})
	}

	gate.armed.Store(true)
	r1 := round(1)
	got, err := r1.Collect()
	if err != nil {
		t.Fatal(err)
	}
	assertBits(t, "round 1", got, foldWant(parts, 1))
	<-gate.entered // the loser is inside the image of map part gateMap
	r1.Unpersist()
	m := c.Metrics()
	if got := m.BlocksRecycled.Load(); got != 0 {
		t.Fatalf("BlocksRecycled = %d before any round could recycle", got)
	}

	r2 := round(2)
	defer r2.Unpersist()
	if got, err = r2.Collect(); err != nil {
		t.Fatal(err)
	}
	assertBits(t, "round 2", got, foldWant(parts, 2))
	if got := m.BlocksRecycled.Load(); got != 0 {
		t.Errorf("round 2 drew %d image(s) from the pool: round 1 retired with a reader inside and must have left its images to the GC", got)
	}

	close(gate.release)
	c.Quiesce()
	mu.Lock()
	defer mu.Unlock()
	zombies := 0
	for m, a := range attempts {
		assertBits(t, fmt.Sprintf("gated block as machine %d decoded it", m), a.saw, roundVals(1, gateMap, 0))
		if a.err == nil {
			continue
		}
		zombies++
		if !errors.Is(a.err, errRetired) || !errors.Is(a.err, errObsolete) {
			t.Errorf("zombie's next fetch returned %v, want errRetired (an obsolete-attempt error)", a.err)
		}
	}
	if len(attempts) != 2 || zombies != 1 {
		t.Errorf("%d attempts of partition 0, %d ended on a retired exchange; want 2 and 1", len(attempts), zombies)
	}
}
