// Movie recommendation (the paper's §IV-E scenario): complete a
// user-movie-time rating tensor whose movie mode carries a genre-based
// similarity, compare DisTenC against plain ALS on held-out ratings, and
// produce top-N recommendations for one user.
//
//	go run ./examples/movierec
package main

import (
	"fmt"
	"log"
	"math/rand/v2"
	"sort"

	"distenc"
)

func main() {
	log.SetFlags(0)

	// Ratings are scarce relative to the tensor volume (~0.7% observed after
	// the split) — the regime where auxiliary information earns its keep.
	ds := distenc.GenerateNetflix(distenc.RecsysConfig{
		Users: 400, Items: 200, Contexts: 8,
		Rank: 6, NNZ: 20_000, Noise: 0.5, Seed: 7,
	})
	rng := rand.New(rand.NewPCG(7, 0))
	train, test := ds.Tensor.Split(0.5, rng)
	fmt.Printf("%s: training on %d ratings, testing on %d\n", ds.Name, train.NNZ(), test.NNZ())

	cluster, err := distenc.NewCluster(distenc.ClusterConfig{Machines: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	// DisTenC with the movie-genre similarity.
	withAux, err := distenc.CompleteDistributed(cluster, train, ds.Sims, distenc.DistOptions{
		// Tol 1e-4: stop once the factors move less than this.
		Options: distenc.Options{Rank: 6, MaxIter: 60, Tol: 1e-4, Seed: 1, Alpha: 5},
	})
	if err != nil {
		log.Fatal(err)
	}
	// The same model without auxiliary information, for contrast.
	without, err := distenc.CompleteDistributed(cluster, train, nil, distenc.DistOptions{
		Options: distenc.Options{Rank: 6, MaxIter: 60, Tol: 1e-4, Seed: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	rmseAux := distenc.RMSE(test, withAux.Model)
	rmsePlain := distenc.RMSE(test, without.Model)
	fmt.Printf("held-out RMSE: with genre similarity %.4f, without %.4f (%.1f%% better)\n",
		rmseAux, rmsePlain, 100*(rmsePlain-rmseAux)/rmsePlain)

	// Top-5 recommendations for user 17 in the most recent context,
	// excluding movies the user already rated.
	const user, ctx = 17, 7
	rated := map[int32]bool{}
	for e := 0; e < train.NNZ(); e++ {
		idx := train.Index(e)
		if idx[0] == user {
			rated[idx[1]] = true
		}
	}
	type rec struct {
		movie int32
		score float64
	}
	var recs []rec
	for m := int32(0); m < int32(ds.Tensor.Dims[1]); m++ {
		if rated[m] {
			continue
		}
		recs = append(recs, rec{m, withAux.Model.At([]int32{user, m, ctx})})
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].score > recs[j].score })
	fmt.Printf("\ntop-5 recommendations for user %d (already rated %d movies):\n", user, len(rated))
	for i := 0; i < 5 && i < len(recs); i++ {
		fmt.Printf("  movie %3d — predicted rating %.2f\n", recs[i].movie, recs[i].score)
	}
}
