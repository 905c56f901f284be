package core

import (
	"fmt"
	"testing"

	"distenc/internal/rdd"
	"distenc/internal/synth"
)

// stageArenaDemand is the float64 demand of partition p's two MTTKRP tasks,
// from the layout alone: the map task draws one slab for its accumulators
// and its ‖E‖² slot; the reduce task draws its dense slab of every mode's
// rows, then holds one decoded block at a time — the rows map task mp sent
// it, plus the ‖E‖² record every map task sends partition 0 — and draws the
// ‖E‖² record partition 0 returns after the last block.
func stageArenaDemand(l *Layout, p, rank int) (mapNeed, reduceNeed int) {
	mapNeed = 1
	for _, rows := range l.neededRows[p] {
		mapNeed += len(rows) * rank
	}
	block := 0
	for mp := 0; mp < l.parts; mp++ {
		vals := 0
		if p == 0 {
			vals = 1
		}
		for n := range l.neededRows[mp] {
			if runs := l.rowRuns[mp][n]; p < len(runs)-1 {
				vals += (runs[p+1] - runs[p]) * rank
			}
		}
		block = max(block, vals)
	}
	for n := range l.modeBounds {
		if p < l.modeBounds[n].NumPartitions() {
			lo, hi := l.modeBounds[n].Range(p)
			reduceNeed += (hi - lo) * rank
		}
	}
	return mapNeed, reduceNeed + block
}

// TestStageArenaHoldsOneSlabPerPartition: the map task and the reduce task of
// a partition share one pooled arena, so after warm iterations the cluster
// holds, per partition, the larger of the two tasks' demands — not their sum,
// nor the slack of the first iteration's geometric growth — computed exactly
// from the layout. On the first tensor the map side's demand is the larger,
// on the second (a long, sparsely observed mode 0, whose reduce slabs are
// dense) the reduce side's.
func TestStageArenaHoldsOneSlabPerPartition(t *testing.T) {
	for _, dims := range [][]int{{300, 240, 60}, {3000, 40, 30}} {
		d := synth.LinearFactorDataset(dims, 3, 2_000, 5)
		for _, grid := range []bool{false, true} {
			for _, machines := range []int{2, 4} {
				t.Run(fmt.Sprintf("dims=%v/grid=%v/machines=%d", dims, grid, machines), func(t *testing.T) {
					opt := DistOptions{Options: Options{Rank: 6}.withDefaults(), Partitions: 4, GridPartition: grid}
					c := rdd.MustNewCluster(rdd.Config{Machines: machines})
					defer c.Close()
					l := NewLayout(d.Tensor, opt)
					blocks := l.BlocksRDD(c)
					factors := initFactors(d.Tensor.Dims, opt.Rank, 2)
					for range 3 {
						if _, _, err := MTTKRPStage(c, blocks, l, factors, opt); err != nil {
							t.Fatal(err)
						}
					}
					want, sum := 0, 0
					for p := 0; p < l.parts; p++ {
						m, r := stageArenaDemand(l, p, opt.Rank)
						want += max(m, r)
						sum += m + r
					}
					if got := c.PooledArenaFloat64s(); got != want {
						t.Errorf("the pooled arenas hold %d float64s, want Σ_p max(map, reduce) = %d (the sum of both would be %d)", got, want, sum)
					}
				})
			}
		}
	}
}
