// Fixture exercising rddcapture against the real engine API: every legal way
// to move state across the task boundary, plus the two illegal ones.
package a

import "distenc/internal/rdd"

type config struct {
	Rank   int
	Lambda float64
}

func driver(c *rdd.Cluster, nums *rdd.RDD[int]) error {
	total := 0
	scale := []float64{1, 2}
	cfg := config{Rank: 8}

	// Writing captured driver state is always flagged: on a real cluster the
	// closure ships by value and the write silently vanishes.
	doubled := rdd.MapPartitions(nums, "double", func(tc *rdd.TaskCtx, p int, in []int) ([]int, error) {
		total += len(in) // want `writes to captured driver-side variable "total"`
		return in, nil
	})

	// Reading captured mutable state is flagged too...
	_ = rdd.MapPartitions(doubled, "scale", func(tc *rdd.TaskCtx, p int, in []int) ([]int, error) {
		return in[:int(scale[0])], nil // want `captures driver-side mutable state "scale"`
	})

	// ...a pointer included: no engine type is designed to cross the boundary...
	_ = rdd.MapPartitions(doubled, "cluster", func(tc *rdd.TaskCtx, p int, in []int) ([]int, error) {
		return in[:c.Machines()], nil // want `captures driver-side mutable state "c"`
	})

	// ...unless it is immutable (scalars and plain structs of scalars ride along),
	ok2 := rdd.MapPartitions(nums, "rank", func(tc *rdd.TaskCtx, p int, in []int) ([]int, error) {
		return in[:cfg.Rank], nil
	})

	// or is an audited read-only shipment waived by name.
	rows := []float64{3, 4}
	//distenc:capture-ok rows -- fixture: shipment accounted by the caller
	_ = rdd.MapPartitions(ok2, "waived", func(tc *rdd.TaskCtx, p int, in []int) ([]int, error) {
		return in[:int(rows[0])], nil
	})
	return ok2.Materialize()
}
