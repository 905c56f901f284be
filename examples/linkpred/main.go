// Link prediction (the paper's §IV-F scenario): complete a user-user-time
// friendship tensor with a community-based user similarity and rank
// candidate links for a user by predicted strength, evaluating how many
// held-out links the top of the ranking recovers.
//
//	go run ./examples/linkpred
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

	ds := distenc.GenerateFacebook(distenc.LinkPredConfig{
		Users: 400, Days: 6, Rank: 6, NNZ: 25_000, Noise: 0.1, Seed: 11,
	})
	rng := rand.New(rand.NewPCG(11, 0))
	train, test := ds.Tensor.Split(0.5, rng)
	fmt.Printf("%s: %d observed links for training, %d held out\n", ds.Name, train.NNZ(), test.NNZ())

	cluster, err := distenc.NewCluster(distenc.ClusterConfig{Machines: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	res, err := distenc.CompleteDistributed(cluster, train, ds.Sims, distenc.DistOptions{
		// Tol 1e-4: stop once the factors move less than this.
		Options: distenc.Options{Rank: 6, MaxIter: 30, Tol: 1e-4, Seed: 2, Alpha: 0.5},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("held-out RMSE %.4f after %d iterations\n", distenc.RMSE(test, res.Model), res.Iters)

	// Hits@K: of the held-out links of one user on the last day, how many
	// appear in the top-K predicted candidates? Pick the user with the most
	// held-out links that day so the metric has support.
	const day, topK = 5, 20
	perUser := map[int32]int{}
	for e := 0; e < test.NNZ(); e++ {
		idx := test.Index(e)
		if idx[2] == day {
			perUser[idx[0]]++
		}
	}
	var user int32
	for u, n := range perUser {
		if n > perUser[user] {
			user = u
		}
	}
	heldOut := map[int32]bool{}
	for e := 0; e < test.NNZ(); e++ {
		idx := test.Index(e)
		if idx[0] == user && idx[2] == day {
			heldOut[idx[1]] = true
		}
	}
	known := map[int32]bool{user: true}
	for e := 0; e < train.NNZ(); e++ {
		idx := train.Index(e)
		if idx[0] == user && idx[2] == day {
			known[idx[1]] = true
		}
	}
	type cand struct {
		v     int32
		score float64
	}
	var cands []cand
	for v := int32(0); v < int32(ds.Tensor.Dims[1]); v++ {
		if known[v] {
			continue
		}
		cands = append(cands, cand{v, res.Model.At([]int32{user, v, day})})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].score > cands[j].score })
	hits := 0
	for i := 0; i < topK && i < len(cands); i++ {
		if heldOut[cands[i].v] {
			hits++
		}
	}
	fmt.Printf("user %d, day %d: %d held-out links, hits@%d = %d\n",
		user, day, len(heldOut), topK, hits)
	fmt.Println("top predicted new links:")
	for i := 0; i < 5 && i < len(cands); i++ {
		marker := ""
		if heldOut[cands[i].v] {
			marker = "  <- held-out true link"
		}
		fmt.Printf("  user %3d — score %.3f%s\n", cands[i].v, cands[i].score, marker)
	}
}
