// Scaling: walk the feasibility frontier. Stars grow one relation at a
// time and each optimizer runs under the paper's 1 GB budget until it
// becomes infeasible — reproducing the shape of Tables 2.1 and 3.3: DP
// collapses first, IDP(7) later, while SDP keeps going. A second pass
// shows the other scaling axis: the same enumeration split across cores
// (Workers > 1), producing bit-for-bit identical plans.
package main

import (
	"errors"
	"fmt"
	"log"
	"math"
	"runtime"
	"time"

	"sdpopt"
)

func main() {
	cat := sdpopt.ExtendedSchema(40)

	type alg struct {
		name string
		dead bool
		run  func(*sdpopt.Query) (*sdpopt.Plan, sdpopt.Stats, error)
	}
	idp7 := sdpopt.IDPDefaults()
	idp7.Budget = sdpopt.DefaultBudget
	sdpOpts := sdpopt.SDPOptions()
	sdpOpts.Budget = sdpopt.DefaultBudget
	algs := []*alg{
		{name: "DP", run: func(q *sdpopt.Query) (*sdpopt.Plan, sdpopt.Stats, error) {
			return sdpopt.OptimizeDP(q, sdpopt.DPOptions{Budget: sdpopt.DefaultBudget})
		}},
		{name: "IDP(7)", run: func(q *sdpopt.Query) (*sdpopt.Plan, sdpopt.Stats, error) {
			return sdpopt.OptimizeIDP(q, idp7)
		}},
		{name: "SDP", run: func(q *sdpopt.Query) (*sdpopt.Plan, sdpopt.Stats, error) {
			return sdpopt.OptimizeSDP(q, sdpOpts)
		}},
	}

	fmt.Printf("%5s", "rels")
	for _, a := range algs {
		fmt.Printf(" %22s", a.name+" (time / mem)")
	}
	fmt.Println()

	for n := 10; n <= 30; n += 2 {
		qs, err := sdpopt.Instances(sdpopt.WorkloadSpec{
			Cat: cat, Topology: sdpopt.Star, NumRelations: n, Seed: 3,
		}, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%5d", n)
		for _, a := range algs {
			if a.dead {
				fmt.Printf(" %22s", "*")
				continue
			}
			_, stats, err := a.run(qs[0])
			if errors.Is(err, sdpopt.ErrBudget) {
				a.dead = true
				fmt.Printf(" %22s", "* (exceeds 1GB)")
				continue
			}
			if err != nil {
				log.Fatalf("%s at %d relations: %v", a.name, n, err)
			}
			fmt.Printf(" %14s %6.1fMB",
				stats.Elapsed.Round(time.Millisecond), stats.Memo.PeakMB())
		}
		fmt.Println()
	}
	fmt.Println("\n'*' marks the feasibility cliff under the 1 GB simulated-memory budget.")

	// Core scaling: one 17-relation star, enumerated sequentially and at
	// growing worker counts. The plans are identical
	// by contract — only the wall time may move, and only when the runtime
	// has cores to give (GOMAXPROCS below caps real parallelism).
	fmt.Printf("\nParallel enumeration, Star-17 SDP (GOMAXPROCS=%d):\n", runtime.GOMAXPROCS(0))
	qs, err := sdpopt.Instances(sdpopt.WorkloadSpec{
		Cat: cat, Topology: sdpopt.Star, NumRelations: 17, Seed: 3,
	}, 1)
	if err != nil {
		log.Fatal(err)
	}
	var baseCost float64
	var baseTime time.Duration
	for _, w := range []int{1, 2, 4, 8} {
		opts := sdpopt.SDPOptions()
		opts.Budget = sdpopt.DefaultBudget
		opts.Workers = w
		p, stats, err := sdpopt.OptimizeSDP(qs[0], opts)
		if err != nil {
			log.Fatalf("SDP with %d workers: %v", w, err)
		}
		if w == 1 {
			baseCost, baseTime = p.Cost, stats.Elapsed
		}
		identical := math.Float64bits(p.Cost) == math.Float64bits(baseCost)
		fmt.Printf("  workers=%d  %10s  speedup %.2fx  identical plan: %v\n",
			w, stats.Elapsed.Round(time.Millisecond),
			float64(baseTime)/float64(stats.Elapsed), identical)
	}
}
