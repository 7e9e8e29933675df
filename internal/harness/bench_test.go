package harness

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"sdpopt/internal/memo"
	"sdpopt/internal/query"
	"sdpopt/internal/tech"
	"sdpopt/internal/workload"
)

// populationSeed is the benchmark's population seed: template i of a
// workload draws its instances from populationSeed + 101·i.
const populationSeed = 20070415

// coldEnum is the benchmark's cold-enum mix: five templates over the paper
// schema, each with the technique its requests name and its request weight.
var coldEnum = []struct {
	topo   workload.Topology
	rels   int
	tech   string
	weight int
}{
	{workload.Star, 12, tech.SDP, 3},
	{workload.Cycle, 12, tech.DP, 1},
	{workload.StarChain, 15, tech.SDP, 4},
	{workload.Star, 10, tech.DP, 1},
	{workload.Chain, 20, tech.DP, 1},
}

// coldEnumName names template i as "star-12".
func coldEnumName(i int) string {
	c := coldEnum[i]
	return fmt.Sprintf("%s-%d", strings.ToLower(c.topo.String()), c.rels)
}

// coldEnumSpec is template i's instance population.
func coldEnumSpec(i int) workload.Spec {
	c := coldEnum[i]
	return workload.Spec{Cat: workload.PaperSchema(), Topology: c.topo, NumRelations: c.rels, Seed: populationSeed + int64(i)*101}
}

// BenchmarkColdEnumEngines runs the engines behind the cold-enum workload in
// process: each template's eight instances under its technique, then the
// request mix (every template's instances once per unit of weight). It sizes
// a change to enumeration, costing or the memo without HTTP, in ms/query,
// plans costed per op and ns per plan costed.
func BenchmarkColdEnumEngines(b *testing.B) {
	var mixQs []*query.Query
	var mixTechs []string
	for i, c := range coldEnum {
		qs, err := workload.Instances(coldEnumSpec(i), 8)
		if err != nil {
			b.Fatal(err)
		}
		techs := make([]string, len(qs))
		for k := range techs {
			techs[k] = c.tech
		}
		b.Run(coldEnumName(i)+"/"+c.tech, func(b *testing.B) { benchEngines(b, qs, techs) })
		for range c.weight {
			mixQs = append(mixQs, qs...)
			mixTechs = append(mixTechs, techs...)
		}
	}
	b.Run("mix", func(b *testing.B) { benchEngines(b, mixQs, mixTechs) })
}

// benchEngines optimizes every query, qs[k] with techs[k], once per op.
func benchEngines(b *testing.B, qs []*query.Query, techs []string) {
	b.ReportAllocs()
	var plans int64
	for range b.N {
		for k, q := range qs {
			_, st, err := tech.Run(context.Background(), techs[k], q, tech.Options{Budget: memo.DefaultBudget})
			if err != nil {
				b.Fatal(err)
			}
			plans += st.PlansCosted
		}
	}
	ns := float64(b.Elapsed().Nanoseconds())
	b.ReportMetric(ns/1e6/float64(b.N*len(qs)), "ms/query")
	b.ReportMetric(float64(plans)/float64(b.N), "plans/op")
	b.ReportMetric(ns/float64(plans), "ns/plan")
}
