// Scaling: walk the feasibility frontier. Stars grow one relation at a
// time and each optimizer runs under the paper's 1 GB budget until it
// becomes infeasible — reproducing the shape of Tables 2.1 and 3.3: DP
// collapses first, IDP(7) later, while SDP keeps going.
package main

import (
	"errors"
	"fmt"
	"log"
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

}
