// Benchmarks regenerating every table and figure of the paper, one bench
// per artifact, plus micro-benchmarks of the optimizer substrate. Bench
// configurations use reduced sample sizes (and, where noted, reduced memory
// budgets) so a full -bench=. sweep completes in minutes; `sdplab run -exp
// <id>` runs the paper-scale versions with the same code.
package sdpopt_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"sdpopt"
	"sdpopt/internal/bits"
	"sdpopt/internal/cost"
	"sdpopt/internal/dp"
	"sdpopt/internal/harness"
	"sdpopt/internal/obs/span"
	"sdpopt/internal/skyline"
	"sdpopt/internal/workload"
)

// runExp is the shared driver: regenerate one paper artifact per iteration.
func runExp(b *testing.B, id string, cfg harness.Config) {
	b.Helper()
	e, err := harness.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	var out string
	for i := 0; i < b.N; i++ {
		out, err = e.Run(cfg)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
	if out == "" {
		b.Fatalf("%s produced no output", id)
	}
}

// Table 1.1: plan quality on Star-Chain-15 (DP / IDP / SDP).
func BenchmarkTable11StarChain15Quality(b *testing.B) {
	runExp(b, "tab1.1", harness.Config{Instances: 3, Seed: 42})
}

// Table 1.2: optimization overheads on Star-Chain-15.
func BenchmarkTable12StarChain15Overheads(b *testing.B) {
	runExp(b, "tab1.2", harness.Config{Instances: 3, Seed: 42})
}

// Figure 1.2: plan quality vs optimization effort.
func BenchmarkFigure12QualityEffort(b *testing.B) {
	runExp(b, "fig1.2", harness.Config{Instances: 3, Seed: 42})
}

// Table 1.3: plan quality on the scaled Star-Chain-23.
func BenchmarkTable13StarChain23Quality(b *testing.B) {
	runExp(b, "tab1.3", harness.Config{Instances: 2, Seed: 42})
}

// Table 1.4: overheads on the scaled Star-Chain-23.
func BenchmarkTable14StarChain23Overheads(b *testing.B) {
	runExp(b, "tab1.4", harness.Config{Instances: 2, Seed: 42})
}

// Table 2.1: DP overheads, chain vs star. A 64 MB budget moves the star
// feasibility cliff inward (to ~13 relations) so the full sweep stays fast;
// the cliff's existence and the chain/star contrast are what the table
// demonstrates.
func BenchmarkTable21ChainVsStar(b *testing.B) {
	runExp(b, "tab2.1", harness.Config{Seed: 1, Budget: 64 << 20})
}

// Table 2.2: the worked multi-way skyline pruning example.
func BenchmarkTable22SkylineExample(b *testing.B) {
	runExp(b, "tab2.2", harness.Config{Seed: 1})
}

// Table 2.3: skyline Option 1 vs Option 2.
func BenchmarkTable23SkylineOptions(b *testing.B) {
	runExp(b, "tab2.3", harness.Config{Instances: 5, Seed: 1})
}

// Figures 2.2/2.3: the SDP iteration walkthrough.
func BenchmarkFigure22SDPIterations(b *testing.B) {
	runExp(b, "fig2.2", harness.Config{Seed: 1})
}

// Table 3.1: star plan quality at 15/20/23 relations.
func BenchmarkTable31StarQuality(b *testing.B) {
	runExp(b, "tab3.1", harness.Config{Instances: 2, Seed: 42})
}

// Table 3.2: star overheads at 15/20/23 relations.
func BenchmarkTable32StarOverheads(b *testing.B) {
	runExp(b, "tab3.2", harness.Config{Instances: 2, Seed: 42})
}

// Table 3.3: maximum star scaleup. A 96 MB budget shrinks every
// technique's frontier proportionally so the scan completes quickly while
// preserving the ordering DP < IDP(7) < IDP(4)/SDP.
func BenchmarkTable33MaxScaleup(b *testing.B) {
	runExp(b, "tab3.3", harness.Config{Seed: 3, Budget: 96 << 20})
}

// Table 3.4: ordered star plan quality.
func BenchmarkTable34OrderedStar(b *testing.B) {
	runExp(b, "tab3.4", harness.Config{Instances: 2, Seed: 42})
}

// Table 3.5: ordered star-chain plan quality.
func BenchmarkTable35OrderedStarChain(b *testing.B) {
	runExp(b, "tab3.5", harness.Config{Instances: 2, Seed: 42})
}

// Table 3.6: local vs global pruning on Star-Chain-20.
func BenchmarkTable36LocalVsGlobal(b *testing.B) {
	runExp(b, "tab3.6", harness.Config{Instances: 1, Seed: 42})
}

// Ablation: root-hub vs parent-hub partitioning.
func BenchmarkAblationPartitioning(b *testing.B) {
	runExp(b, "abl.part", harness.Config{Instances: 3, Seed: 42})
}

// Ablation: strong (k-dominant) skyline.
func BenchmarkAblationStrongSkyline(b *testing.B) {
	runExp(b, "abl.strong", harness.Config{Instances: 3, Seed: 42})
}

// Ablation: IDP plan-evaluation functions.
func BenchmarkAblationIDPEvals(b *testing.B) {
	runExp(b, "abl.idpeval", harness.Config{Instances: 3, Seed: 42})
}

// --- Substrate micro-benchmarks ---

func benchQueries(b *testing.B, topo sdpopt.Topology, n int) []*sdpopt.Query {
	b.Helper()
	qs, err := sdpopt.Instances(sdpopt.WorkloadSpec{
		Cat: sdpopt.PaperSchema(), Topology: topo, NumRelations: n, Seed: 9,
	}, 1)
	if err != nil {
		b.Fatal(err)
	}
	return qs
}

// BenchmarkOptimizeDPChain measures raw DPsize enumeration on hub-free
// graphs of growing size.
func BenchmarkOptimizeDPChain(b *testing.B) {
	for _, n := range []int{8, 16, 28} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			q := benchQueries(b, sdpopt.Chain, n)[0]
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := sdpopt.OptimizeDP(q, sdpopt.DPOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOptimizeSDPStar measures SDP on the hub-heavy workloads it was
// designed for.
func BenchmarkOptimizeSDPStar(b *testing.B) {
	for _, n := range []int{10, 15, 20} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			q := benchQueries(b, sdpopt.Star, n)[0]
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := sdpopt.OptimizeSDP(q, sdpopt.SDPOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOptimizeIDPStar measures IDP(7) on the same stars.
func BenchmarkOptimizeIDPStar(b *testing.B) {
	for _, n := range []int{10, 15} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			q := benchQueries(b, sdpopt.Star, n)[0]
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := sdpopt.OptimizeIDP(q, sdpopt.IDPDefaults()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSkyline compares the skyline algorithms on uniform random
// 3-D points at the partition sizes SDP sees.
func BenchmarkSkyline(b *testing.B) {
	for _, n := range []int{16, 128, 1024} {
		rng := rand.New(rand.NewSource(1))
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		}
		b.Run(fmt.Sprintf("BNL/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				skyline.BNL(pts)
			}
		})
		b.Run(fmt.Sprintf("Disjunctive/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				skyline.DisjunctivePairwiseMasks(pts, skyline.RCSPairs)
			}
		})
	}
}

// BenchmarkCostModel measures the per-join costing hot path.
func BenchmarkCostModel(b *testing.B) {
	qs, err := workload.Instances(workload.Spec{
		Cat: workload.PaperSchema(), Topology: workload.StarChain, NumRelations: 15, Seed: 9,
	}, 1)
	if err != nil {
		b.Fatal(err)
	}
	q := qs[0]
	m := cost.NewModel(q, cost.DefaultParams())
	outer := m.AccessPaths(0)[0]
	inner := m.AccessPaths(1)[0]
	preds := q.PredsBetween(outer.Rels, inner.Rels)
	rows := m.JoinRows(outer.Rels, inner.Rels, outer.Rows, inner.Rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.JoinPlans(cost.JoinInputs{Outer: outer, Inner: inner, Preds: preds, Rows: rows})
	}
}

// BenchmarkEnumerationOnly isolates the DP engine's pair-enumeration and
// memoization machinery on a 12-relation star, comparing the retained
// naive generate-and-filter reference scan with the default
// adjacency-indexed walk. Each sub-bench reports how many candidate pairs
// one optimization considers; CI runs the pair as a regression guard on the
// counts, which repeat exactly (pairs/op per enumerator, and a fence on
// allocs/op), and prints the wall times without gating on them.
func BenchmarkEnumerationOnly(b *testing.B) {
	qs, err := workload.Instances(workload.Spec{
		Cat: workload.PaperSchema(), Topology: workload.Star, NumRelations: 12, Seed: 9,
	}, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		opts dp.Options
	}{
		{"naive", dp.Options{Enum: dp.EnumNaive}},
		{"indexed", dp.Options{}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var st dp.Stats
			for i := 0; i < b.N; i++ {
				var err error
				if _, st, err = dp.Optimize(qs[0], bc.opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(st.PairsConsidered), "pairs/op")
		})
	}
}

// BenchmarkNeighbors measures query.Query.Neighbors, the inner call of the
// adjacency-indexed walk: the single-bit short-circuit (a level-1 class,
// one table lookup) against the general multi-bit union.
func BenchmarkNeighbors(b *testing.B) {
	q := benchQueries(b, sdpopt.StarChain, 15)[0]
	single := bits.Of(3)
	multi := bits.Of(0, 2, 5, 9, 12)
	b.Run("single-bit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = q.Neighbors(single)[0]
		}
	})
	b.Run("multi-bit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = q.Neighbors(multi)[0]
		}
	})
}

// sink defeats dead-code elimination in micro-benchmarks.
var sink uint64

// BenchmarkOptimizeCached measures the plan cache's three serving regimes
// on a Star-10 SDP optimization: miss (cleared cache, each iteration pays
// optimization plus insertion), hit (warmed cache, each iteration is a
// lookup), and contention (parallel goroutines hammering one warmed key —
// the shard-lock hot path).
func BenchmarkOptimizeCached(b *testing.B) {
	q := benchQueries(b, sdpopt.Star, 10)[0]
	ctx := context.Background()
	b.Run("miss", func(b *testing.B) {
		pc := sdpopt.NewPlanCache(sdpopt.PlanCacheOptions{})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pc.Clear()
			if _, _, cached, err := sdpopt.OptimizeCached(ctx, pc, q, "sdp", 0); err != nil {
				b.Fatal(err)
			} else if cached {
				b.Fatal("cleared cache served a hit")
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		pc := sdpopt.NewPlanCache(sdpopt.PlanCacheOptions{})
		if _, _, _, err := sdpopt.OptimizeCached(ctx, pc, q, "sdp", 0); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, cached, err := sdpopt.OptimizeCached(ctx, pc, q, "sdp", 0); err != nil {
				b.Fatal(err)
			} else if !cached {
				b.Fatal("warmed cache missed")
			}
		}
	})
	b.Run("contention", func(b *testing.B) {
		pc := sdpopt.NewPlanCache(sdpopt.PlanCacheOptions{})
		if _, _, _, err := sdpopt.OptimizeCached(ctx, pc, q, "sdp", 0); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, _, cached, err := sdpopt.OptimizeCached(ctx, pc, q, "sdp", 0); err != nil {
					b.Fatal(err)
				} else if !cached {
					b.Fatal("warmed cache missed")
				}
			}
		})
	})
}

// BenchmarkOptimizeTracing is the span-tracing overhead guard: the same
// Star-12 SDP optimization with a bare context ("off") and under a full
// request span recorded into a flight recorder ("on"), the way the server
// traces it. Spans attach at level barriers, not inside the enumeration
// hot loop, so the two variants must stay within noise of each other; CI
// runs both at -benchtime=1x as a smoke check, and the repository benchmark
// reports the measured comparison as the obs.overhead_ratio layer metric.
func BenchmarkOptimizeTracing(b *testing.B) {
	q := benchQueries(b, sdpopt.Star, 12)[0]
	b.Run("off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := sdpopt.OptimizeSDP(q, sdpopt.SDPOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("on", func(b *testing.B) {
		rec := span.NewRecorder(span.RecorderOptions{})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			root := span.New("request")
			rec.Start(root)
			opts := sdpopt.SDPOptions()
			opts.Ctx = span.NewContext(context.Background(), root)
			if _, _, err := sdpopt.OptimizeSDP(q, opts); err != nil {
				b.Fatal(err)
			}
			rec.Finish(root, 200)
		}
	})
}

// Comparison of all optimizer families (DP, IDP, SDP, GOO, II, SA, GEQO).
func BenchmarkAblationPriorArt(b *testing.B) {
	runExp(b, "abl.prior", harness.Config{Instances: 2, Seed: 42})
}

// Ablation: IDP1 vs IDP2 block strategies.
func BenchmarkAblationIDP2(b *testing.B) {
	runExp(b, "abl.idp2", harness.Config{Instances: 2, Seed: 42})
}

// Extension: cycle and clique topologies.
func BenchmarkExtTopologies(b *testing.B) {
	runExp(b, "ext.topo", harness.Config{Instances: 2, Seed: 42})
}

// Extension: TPC-H query shapes.
func BenchmarkExtTPCH(b *testing.B) {
	runExp(b, "ext.tpch", harness.Config{Seed: 42})
}

// Extension: executor validation.
func BenchmarkExtValidate(b *testing.B) {
	runExp(b, "ext.validate", harness.Config{Seed: 42})
}

// Ablation: bushy vs left-deep enumeration.
func BenchmarkAblationBushy(b *testing.B) {
	runExp(b, "abl.bushy", harness.Config{Instances: 2, Seed: 42})
}

// Extension: filter selectivity estimation accuracy.
func BenchmarkExtEstimation(b *testing.B) {
	runExp(b, "ext.esterr", harness.Config{Instances: 3, Seed: 42})
}
