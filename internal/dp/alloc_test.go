package dp_test

import (
	"testing"

	"sdpopt/internal/core"
	"sdpopt/internal/dp"
	"sdpopt/internal/plan"
	"sdpopt/internal/query"
	"sdpopt/internal/testutil"
	"sdpopt/internal/workload"
)

// TestEnumerationAllocatesOnWin is the regression fence for cost first,
// allocate on read: enumeration allocates per plan a reader needs, not per
// candidate costed nor per candidate retained. Building every candidate before
// the memo saw it measured 1.01 objects per plan costed on these queries;
// building only admitted candidates measured 0.10 (Star-12) and 0.04
// (Chain-16); with every indexed nested loop over a relation sharing the
// model's one IndexScan node it measured 0.067 (Star-12), 0.035 (Chain-16)
// and, under SDP's hook — which adds its per-level partitions, feature points
// and masks while costing a twenty-fifth of the plans — 0.160 (Star-12) and
// 0.106 (Star-Chain-15, the benchmark's cold-enum instance). Retaining
// admitted candidates as values and building each class's plans on its first
// read — so interim winners a cheaper candidate displaces, and classes SDP
// prunes, are never built, and cost ties compare trees laid out on the stack
// — measures 0.019 (Star-12), 0.016 (Chain-16), 0.062 (SDP Star-12) and 0.035
// (SDP Star-Chain-15). A flat memo — classes and paths as pointer-free values
// in chunked arenas, join inputs read as numbers, one tree built per answer —
// with SDP's disjunctive skyline projecting into one buffer measures 0.00045
// (Star-12, 675 objects), 0.0032 (Chain-16), 0.0159 (SDP Star-12) and 0.0079
// (SDP Star-Chain-15); under -race 0.00051, 0.0034, 0.0168 and 0.0083.
// Each of those limits (race) is that plain measurement with 1.5× headroom,
// so it fails as soon as the memo allocates per class or per path again.
// Reusing a released memo's storage, and the level lists and skyline masks
// in per-run buffers, the warm run measures 0.00010 (155 objects), 0.00091,
// 0.00325 and 0.00131 (0.00013, 0.0011–0.0018, 0.0035–0.0045 and
// 0.0015–0.0019 under -race, where sync.Pool drops a share of its Puts). The
// tight limits (limit) are those with 1.5× headroom, applied without -race.
func TestEnumerationAllocatesOnWin(t *testing.T) {
	exhaustive := func(q *query.Query) (*plan.Plan, dp.Stats, error) { return dp.Optimize(q, dp.Options{}) }
	sdp := func(q *query.Query) (*plan.Plan, dp.Stats, error) { return core.Optimize(q, core.DefaultOptions()) }
	for _, c := range []struct {
		name     string
		spec     workload.Spec
		optimize func(*query.Query) (*plan.Plan, dp.Stats, error)
		limit    float64
		race     float64
	}{
		{"star-12", workload.Spec{Cat: workload.PaperSchema(), Topology: workload.Star, NumRelations: 12, Seed: 9}, exhaustive, 0.00016, 0.00068},
		{"chain-16", workload.Spec{Cat: workload.PaperSchema(), Topology: workload.Chain, NumRelations: 16, Seed: 16}, exhaustive, 0.00137, 0.0048},
		{"sdp-star-12", workload.Spec{Cat: workload.PaperSchema(), Topology: workload.Star, NumRelations: 12, Seed: 9}, sdp, 0.0049, 0.024},
		{"sdp-star-chain-15", workload.Spec{Cat: workload.PaperSchema(), Topology: workload.StarChain, NumRelations: 15, Seed: 20070415 + 2*101}, sdp, 0.0020, 0.012},
	} {
		t.Run(c.name, func(t *testing.T) {
			qs, err := workload.Instances(c.spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			var st dp.Stats
			allocs := testing.AllocsPerRun(2, func() {
				if _, st, err = c.optimize(qs[0]); err != nil {
					t.Fatal(err)
				}
			})
			ratio := allocs / float64(st.PlansCosted)
			limit := c.limit
			if testutil.Race {
				limit = c.race
			}
			t.Logf("%.0f allocs for %d plans costed: %.5f per plan", allocs, st.PlansCosted, ratio)
			if ratio >= limit {
				t.Errorf("%.5f allocations per plan costed, want < %.5f", ratio, limit)
			}
		})
	}
}
