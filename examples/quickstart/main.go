// Quickstart: build a tiny partially observed tensor, complete it with the
// serial solver and with DisTenC on a simulated cluster, and predict a few
// unobserved cells.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand/v2"

	"distenc"
)

func main() {
	log.SetFlags(0)

	// A planted rank-3 problem: three modes of size 40, 6000 observed cells,
	// with tri-diagonal similarities (neighboring indices behave alike).
	ds := distenc.GenerateLinearFactor([]int{40, 40, 40}, 3, 6_000, 42)
	rng := rand.New(rand.NewPCG(42, 0))
	train, test := ds.Tensor.Split(0.3, rng)
	fmt.Printf("observed: %d cells for training, %d held out\n", train.NNZ(), test.NNZ())

	// 1. Single-process solver (Algorithm 1 with the paper's optimizations).
	serial, err := distenc.Complete(train, ds.Sims, distenc.Options{
		Rank:    5,
		MaxIter: 40,
		Tol:     1e-4, // stop once the factors move less than this
		Seed:    1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serial:      %2d iterations, %.3fs, held-out RMSE %.4f\n",
		serial.Iters, serial.Elapsed.Seconds(), distenc.RMSE(test, serial.Model))

	// 2. DisTenC on a 4-machine simulated cluster — same mathematics, same
	// answer, but the O(nnz·R) work runs as engine stages.
	cluster, err := distenc.NewCluster(distenc.ClusterConfig{Machines: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	dist, err := distenc.CompleteDistributed(cluster, train, ds.Sims, distenc.DistOptions{
		Options: distenc.Options{Rank: 5, MaxIter: 40, Tol: 1e-4, Seed: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("distributed: %2d iterations, %.3fs, held-out RMSE %.4f\n",
		dist.Iters, dist.Elapsed.Seconds(), distenc.RMSE(test, dist.Model))
	fmt.Printf("engine: %d tasks over %d stages, %.1f KB shuffled\n",
		cluster.Metrics().TasksRun.Load(),
		cluster.Metrics().Stages.Load(),
		float64(cluster.Metrics().BytesShuffled.Load())/1024)

	// 3. Predict unobserved cells: the model is the completed tensor.
	fmt.Println("\nsample predictions (unobserved cells):")
	for _, cell := range [][]int32{{0, 1, 2}, {10, 20, 30}, {39, 39, 39}} {
		fmt.Printf("  X[%2d,%2d,%2d] ≈ %7.3f (ground truth %7.3f)\n",
			cell[0], cell[1], cell[2], dist.Model.At(cell), ds.Truth.At(cell))
	}
}
