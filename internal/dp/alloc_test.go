package dp_test

import (
	"testing"

	"sdpopt/internal/core"
	"sdpopt/internal/dp"
	"sdpopt/internal/plan"
	"sdpopt/internal/query"
	"sdpopt/internal/workload"
)

// TestEnumerationAllocatesOnWin is the regression fence for cost first,
// allocate on win: enumeration allocates per retained winner, not per
// candidate costed. Building every candidate before the memo saw it measured
// 1.01 objects per plan costed on these queries; building only admitted
// candidates measured 0.10 (Star-12) and 0.04 (Chain-16); with every indexed
// nested loop over a relation sharing the model's one IndexScan node it
// measures 0.067 (Star-12), 0.035 (Chain-16) and, under SDP's hook — which
// adds its per-level partitions, feature points and masks while costing a
// twenty-fifth of the plans — 0.160 (Star-12; 0.227 with a scan node per
// build).
// Each limit is that with 1.5× headroom, so it fails long before the kernel
// is back to allocating per candidate and passes with room for the per-class
// allocations (class, ordered slice, memo maps) to move.
func TestEnumerationAllocatesOnWin(t *testing.T) {
	exhaustive := func(q *query.Query) (*plan.Plan, dp.Stats, error) { return dp.Optimize(q, dp.Options{}) }
	sdp := func(q *query.Query) (*plan.Plan, dp.Stats, error) { return core.Optimize(q, core.DefaultOptions()) }
	for _, c := range []struct {
		name     string
		spec     workload.Spec
		optimize func(*query.Query) (*plan.Plan, dp.Stats, error)
		limit    float64
	}{
		{"star-12", workload.Spec{Cat: workload.PaperSchema(), Topology: workload.Star, NumRelations: 12, Seed: 9}, exhaustive, 0.10},
		{"chain-16", workload.Spec{Cat: workload.PaperSchema(), Topology: workload.Chain, NumRelations: 16, Seed: 16}, exhaustive, 0.055},
		{"sdp-star-12", workload.Spec{Cat: workload.PaperSchema(), Topology: workload.Star, NumRelations: 12, Seed: 9}, sdp, 0.24},
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
			t.Logf("%.0f allocs for %d plans costed: %.3f per plan", allocs, st.PlansCosted, ratio)
			if ratio >= c.limit {
				t.Errorf("%.3f allocations per plan costed, want < %.3f", ratio, c.limit)
			}
		})
	}
}
