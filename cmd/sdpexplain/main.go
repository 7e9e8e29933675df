// Command sdpexplain optimizes one query with DP, IDP and SDP and prints
// the chosen plans side by side, EXPLAIN-style. The query is either
// generated from a topology template or supplied as SQL text.
//
// Usage:
//
//	sdpexplain -topology star-chain -rels 15 -seed 7
//	sdpexplain -topology star -rels 20 -ordered        # DP will report *
//	sdpexplain -sql 'SELECT * FROM R20 f, R3 d WHERE f.c1 = d.c2'
//	sdpexplain -topology star -rels 8 -dot | dot -Tsvg > plans.svg
//	sdpexplain -topology star -rels 12 -levels         # per-level table
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"sdpopt"
)

func main() {
	topo := flag.String("topology", "star-chain", "chain | star | cycle | clique | star-chain")
	rels := flag.Int("rels", 15, "number of relations")
	seed := flag.Int64("seed", 1, "workload seed")
	ordered := flag.Bool("ordered", false, "add an ORDER BY on a join column")
	budgetMB := flag.Int64("budget", 1024, "memory budget in MB")
	skewed := flag.Bool("skewed", false, "use the skewed schema")
	dot := flag.Bool("dot", false, "emit Graphviz DOT (join graph + each plan) instead of text")
	levels := flag.Bool("levels", false, "print a per-level enumeration table for each technique")
	sqlText := flag.String("sql", "", "optimize this SQL text instead of a generated query")
	flag.Parse()

	if err := run(*topo, *rels, *seed, *ordered, *budgetMB<<20, *skewed, *dot, *levels, *sqlText); err != nil {
		fmt.Fprintln(os.Stderr, "sdpexplain:", err)
		os.Exit(1)
	}
}

func run(topoName string, rels int, seed int64, ordered bool, budget int64, skewed, dot, levels bool, sqlText string) error {
	cat := sdpopt.PaperSchema()
	if skewed {
		cat = sdpopt.SkewedSchema()
	}
	var q *sdpopt.Query
	if sqlText != "" {
		var err error
		q, err = sdpopt.ParseSQL(cat, sqlText)
		if err != nil {
			return err
		}
	} else {
		topos := map[string]sdpopt.Topology{
			"chain": sdpopt.Chain, "star": sdpopt.Star, "cycle": sdpopt.Cycle,
			"clique": sdpopt.Clique, "star-chain": sdpopt.StarChain,
		}
		topo, ok := topos[strings.ToLower(topoName)]
		if !ok {
			return fmt.Errorf("unknown topology %q", topoName)
		}
		qs, err := sdpopt.Instances(sdpopt.WorkloadSpec{
			Cat: cat, Topology: topo, NumRelations: rels, Ordered: ordered, Seed: seed,
		}, 1)
		if err != nil {
			return err
		}
		q = qs[0]
	}
	if dot {
		fmt.Println(sdpopt.JoinGraphDOT(q))
	} else {
		fmt.Println("Query:")
		fmt.Println(q.SQL())
		fmt.Println()
	}

	type alg struct {
		name string
		run  func(ctx context.Context) (*sdpopt.Plan, sdpopt.Stats, error)
	}
	algs := []alg{
		{"DP", func(ctx context.Context) (*sdpopt.Plan, sdpopt.Stats, error) {
			return sdpopt.OptimizeDP(q, sdpopt.DPOptions{Budget: budget, Ctx: ctx})
		}},
		{"IDP(7)", func(ctx context.Context) (*sdpopt.Plan, sdpopt.Stats, error) {
			opts := sdpopt.IDPDefaults()
			opts.Budget, opts.Ctx = budget, ctx
			return sdpopt.OptimizeIDP(q, opts)
		}},
		{"IDP(4)", func(ctx context.Context) (*sdpopt.Plan, sdpopt.Stats, error) {
			opts := sdpopt.IDPDefaults()
			opts.K, opts.Budget, opts.Ctx = 4, budget, ctx
			return sdpopt.OptimizeIDP(q, opts)
		}},
		{"SDP", func(ctx context.Context) (*sdpopt.Plan, sdpopt.Stats, error) {
			opts := sdpopt.SDPOptions()
			opts.Budget, opts.Ctx = budget, ctx
			return sdpopt.OptimizeSDP(q, opts)
		}},
	}
	var refCost float64
	for _, a := range algs {
		var p *sdpopt.Plan
		var stats sdpopt.Stats
		var err error
		run := func(ctx context.Context) { p, stats, err = a.run(ctx) }
		var tr sdpopt.FlightTrace
		if levels {
			tr = sdpopt.TraceRun(context.Background(), a.name, run)
		} else {
			run(context.Background())
		}
		fmt.Printf("=== %s ===\n", a.name)
		if levels {
			printLevels(tr)
		}
		if errors.Is(err, sdpopt.ErrBudget) {
			fmt.Printf("* infeasible: exceeds the %d MB budget (peak %.1f MB)\n\n", budget>>20, stats.Memo.PeakMB())
			continue
		}
		if err != nil {
			return fmt.Errorf("%s: %w", a.name, err)
		}
		if refCost == 0 {
			refCost = p.Cost
		}
		fmt.Printf("cost=%.2f (%.3fx)  time=%v  plans-costed=%d  sim-mem=%.1fMB\n",
			p.Cost, p.Cost/refCost, stats.Elapsed.Round(time.Microsecond),
			stats.PlansCosted, stats.Memo.PeakMB())
		if dot {
			fmt.Println(sdpopt.PlanDOT(q, p))
			continue
		}
		fmt.Println("shape:", sdpopt.PlanShape(q, p))
		fmt.Println(sdpopt.Explain(q, p))
	}
	return nil
}

// printLevels renders one technique's per-level enumeration table from the
// "level" spans of its run. Pruned is the level's "sdp.level" span's count
// (SDP only) and Alive the running sum of created minus pruned since the
// engine's level 1; IDP tables show each restart's levels in sequence.
func printLevels(tr sdpopt.FlightTrace) {
	printed := false
	pruned := map[int64]int64{}
	var alive int64
	for i := range tr.Root.Children {
		sp := &tr.Root.Children[i]
		switch sp.Name {
		case "sdp.level":
			pruned[sp.Int("level")] = sp.Int("pruned")
			continue
		case "level":
		default:
			continue
		}
		if !printed {
			printed = true
			fmt.Printf("%6s %9s %9s %12s %9s %8s %12s\n",
				"Level", "Created", "Pruned", "PlansCosted", "Alive", "SimMB", "Time")
		}
		level, created := sp.Int("level"), sp.Int("classes_created")
		if level == 1 {
			alive = 0 // a new engine: IDP restarts on its committed leaves
		}
		alive += created - pruned[level]
		fmt.Printf("%6d %9d %9d %12d %9d %8.1f %12v\n",
			level, created, pruned[level], sp.Int("plans_costed"), alive,
			float64(sp.Int("sim_bytes"))/(1<<20),
			time.Duration(sp.DurNS).Round(time.Microsecond))
		delete(pruned, level)
	}
	if printed {
		fmt.Println()
	}
}
