package rdd

import (
	"iter"
	"math"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// overlaps reports whether two float64 slices share any backing memory.
func overlaps(a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	a0, b0 := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return a0 < b0+uintptr(len(b))*8 && b0 < a0+uintptr(len(a))*8
}

// Rewind gives back exactly what was drawn after the mark: the next draw
// reuses that memory, and memory drawn before the mark is never handed out
// again — also when the slab grew (and so changed backing) in between, where
// restoring the marked offset into the new backing would be the bug.
func TestArenaMarkRewind(t *testing.T) {
	var a Arena
	fill := func(s []float64, v float64) []float64 {
		for i := range s {
			s[i] = v
		}
		return s
	}
	check := func(name string, s []float64, v float64) {
		t.Helper()
		for i, x := range s {
			if math.Float64bits(x) != math.Float64bits(v) {
				t.Fatalf("%s[%d] = %v, want %v: live memory was handed out again", name, i, x, v)
			}
		}
	}

	// Within one backing: the region after the mark is reused in place.
	keep := fill(a.Float64s(40), 1)
	m := a.Mark()
	first := a.Float64sDirty(20)
	a.Rewind(m)
	again := a.Float64sDirty(20)
	if unsafe.SliceData(first) != unsafe.SliceData(again) {
		t.Error("a draw after Rewind did not reuse the rewound region")
	}
	fill(again, 2)
	check("keep", keep, 1)

	// Across a grow: 40 live + 20 rewound fit the first 64-element backing,
	// 200 more do not. Everything drawn from here on must stay clear of keep
	// (in the abandoned backing) and of each other.
	a.Rewind(m)
	big := fill(a.Float64sDirty(200), 3)
	if overlaps(big, keep) {
		t.Fatal("the grown slab overlaps memory drawn before the mark")
	}
	a.Rewind(m)
	x := fill(a.Float64sDirty(100), 4)
	y := fill(a.Float64sDirty(100), 5)
	if overlaps(x, y) || overlaps(x, keep) || overlaps(y, keep) {
		t.Fatal("draws after a rewind across a grow overlap live memory")
	}
	check("keep", keep, 1)
	check("x", x, 4)

	// A second mark, taken in the grown backing, rewinds inside it.
	m2 := a.Mark()
	fill(a.Float64sDirty(30), 6)
	a.Rewind(m2)
	fill(a.Float64sDirty(30), 7)
	check("x", x, 4)
	check("y", y, 5)

	// trim sizes the next cycle's backing to the high-water live demand
	// (40 + 200), not to the sum of everything ever drawn (790).
	a.trim()
	if got := len(a.f64.buf); got < 240 || got >= 790 {
		t.Errorf("backing after trim holds %d elements, want the 240-element high-water mark (within geometric slack), not the 790 drawn in total", got)
	}

	// A reserve on a fresh cycle replaces a shorter backing; one after a
	// draw, or for less than the backing holds, changes nothing.
	a.Reset()
	a.ReserveFloat64s(1000)
	if got := len(a.f64.buf); got != 1000 {
		t.Errorf("backing after ReserveFloat64s(1000) holds %d elements", got)
	}
	r := a.Float64s(1000)
	if unsafe.SliceData(r) != unsafe.SliceData(a.f64.buf) {
		t.Error("the reserved draw did not come from the reserved backing")
	}
	a.ReserveFloat64s(5000)
	a.Reset()
	a.ReserveFloat64s(10)
	if got := len(a.f64.buf); got != 1000 {
		t.Errorf("a reserve after a draw or below the backing replaced it: %d elements", got)
	}

	// The int32 slab rewinds too.
	a.Reset()
	a.Int32s(8)
	m3 := a.Mark()
	i1 := a.Int32s(4)
	a.Rewind(m3)
	if i2 := a.Int32s(4); &i1[0] != &i2[0] {
		t.Error("Rewind left the int32 slab where it was")
	}
}

// arenaLog records which arena each task body drew, by stage and partition.
type arenaLog struct {
	mu   sync.Mutex
	seen map[string]map[int][]arenaUse
}

type arenaUse struct {
	machine int
	arena   *Arena
}

func (l *arenaLog) add(stage string, tc *TaskCtx, p int) *Arena {
	a := tc.Arena()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.seen == nil {
		l.seen = map[string]map[int][]arenaUse{}
	}
	if l.seen[stage] == nil {
		l.seen[stage] = map[int][]arenaUse{}
	}
	l.seen[stage][p] = append(l.seen[stage][p], arenaUse{tc.Machine, a})
	return a
}

// one returns the single use of stage's partition p.
func (l *arenaLog) one(t *testing.T, stage string, p int) arenaUse {
	t.Helper()
	uses := l.seen[stage][p]
	if len(uses) != 1 {
		t.Fatalf("%s partition %d ran its body %d times, want 1", stage, p, len(uses))
	}
	return uses[0]
}

// arenaShuffle runs one arena-backed shuffle round over parts partitions:
// map task p draws a slab, reduce task p draws its output slab from the
// arena, fills it with p and returns it. It returns the collected outputs.
func arenaShuffle(t *testing.T, c *Cluster, log *arenaLog, parts int) [][]float64 {
	t.Helper()
	out := ShuffleMap(Parallelize(c, "nums", ints(4*parts), parts), "arena-map", "arena-reduce", parts,
		func(tc *TaskCtx, p int, in []int) ([][]slabRec, error) {
			acc := log.add("map", tc, p).Float64s(64)
			acc[0] = float64(p)
			buckets := make([][]slabRec, parts)
			buckets[p] = []slabRec{{Tag: int32(p), Vals: acc[:1]}}
			return buckets, nil
		},
		func(tc *TaskCtx, p int, blocks iter.Seq2[[]slabRec, error]) ([][]float64, error) {
			slab := log.add("reduce", tc, p).Float64s(32)
			for in, err := range blocks {
				if err != nil {
					return nil, err
				}
				for _, rec := range in {
					for i := range slab {
						slab[i] += rec.Vals[0] + 1
					}
				}
			}
			return [][]float64{slab}, nil
		})
	defer out.Unpersist()
	got, err := out.Collect()
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestArenaSharedByPartitionAcrossStages pins the arena pool's key: the map
// task and the reduce task of partition p, both on machine p mod M, draw the
// same arena; an arena-backed reduce output survives its stage and the
// Collect; the next task of p on that machine, in any stage, gets the arena
// back; and an attempt on another machine (a retry) gets a different one.
func TestArenaSharedByPartitionAcrossStages(t *testing.T) {
	const parts, machines = 4, 2
	c := testCluster(t, Config{Machines: machines})
	var log arenaLog
	got := arenaShuffle(t, c, &log, parts)
	for p := 0; p < parts; p++ {
		m, r := log.one(t, "map", p), log.one(t, "reduce", p)
		if m.machine != p%machines || r.machine != p%machines {
			t.Fatalf("partition %d: map on machine %d, reduce on %d, want both on %d", p, m.machine, r.machine, p%machines)
		}
		if m.arena != r.arena {
			t.Errorf("partition %d: the map and reduce tasks on machine %d drew different arenas", p, m.machine)
		}
		for q := 0; q < p; q++ {
			if log.one(t, "map", q).arena == m.arena {
				t.Errorf("partitions %d and %d share an arena", q, p)
			}
		}
		// The reduce output was drawn from the arena the map task left, and
		// reads what the reduce wrote after the stage and the Collect.
		for i, v := range got[p] {
			if math.Float64bits(v) != math.Float64bits(float64(p)+1) {
				t.Fatalf("partition %d: collected output[%d] = %v, want %v", p, i, v, float64(p)+1)
			}
		}
	}

	// The next task of each partition on the same machine, in another stage,
	// gets the same arena back, reset.
	next := MapPartitions(Parallelize(c, "again", ints(parts), parts), "again", func(tc *TaskCtx, p int, in []int) ([]int, error) {
		log.add("again", tc, p).Float64s(32)
		return in, nil
	})
	if _, err := next.Collect(); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < parts; p++ {
		if log.one(t, "again", p).arena != log.one(t, "map", p).arena {
			t.Errorf("partition %d: the next task on machine %d drew a different arena", p, p%machines)
		}
	}

	// A retried reduce attempt is placed on the other machine and draws an
	// arena of its own there.
	c = testCluster(t, Config{Machines: machines})
	log = arenaLog{}
	c.InjectTaskFailures("collect:arena-reduce", 1)
	arenaShuffle(t, c, &log, parts)
	moved := 0
	for p := 0; p < parts; p++ {
		m, r := log.one(t, "map", p), log.one(t, "reduce", p)
		if r.machine == m.machine {
			continue
		}
		moved++
		for q := 0; q < parts; q++ {
			if log.one(t, "map", q).arena == r.arena {
				t.Errorf("partition %d: the retry on machine %d drew partition %d's arena", p, r.machine, q)
			}
		}
	}
	if moved != 1 {
		t.Fatalf("%d reduce tasks ran away from their map task's machine, want the 1 retried", moved)
	}
}

// TestSpeculativeAttemptDrawsItsOwnArena: a backup attempt racing a
// straggler of the same partition runs on another machine and draws a
// different arena, so the two never share slabs.
func TestSpeculativeAttemptDrawsItsOwnArena(t *testing.T) {
	c := testCluster(t, Config{Machines: 4, CoresPerMachine: 2, Speculation: true})
	var log arenaLog
	slow := slowOnPrimary(300 * time.Millisecond)
	r := MapPartitions(Parallelize(c, "nums", ints(40), 8), "slow",
		func(tc *TaskCtx, p int, in []int) ([]int, error) {
			log.add("slow", tc, p)
			return slow(tc, p, in)
		})
	if err := r.ForeachPartition(func(tc *TaskCtx, p int, items []int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	uses := log.seen["slow"][0]
	if len(uses) != 2 {
		t.Fatalf("partition 0 ran its body %d times, want the straggler and one backup", len(uses))
	}
	if uses[0].machine == uses[1].machine || uses[0].arena == uses[1].arena {
		t.Errorf("the straggler (machine %d) and its backup (machine %d) drew the same arena: %v", uses[0].machine, uses[1].machine, uses[0].arena == uses[1].arena)
	}
}
