package dp

import (
	"testing"

	"sdpopt/internal/workload"
)

// TestEnumerationAllocatesOnWin is the regression fence for cost first,
// allocate on win: exhaustive DP allocates per retained winner, not per
// candidate costed. Building every candidate before the memo saw it measured
// 1.01 objects per plan costed on these queries; building only admitted
// candidates measures 0.10 (Star-12) and 0.04 (Chain-16), so 0.15 fails long
// before the kernel is back to allocating per candidate and passes with room
// for the per-class allocations (class, ordered slice, memo maps) to move.
func TestEnumerationAllocatesOnWin(t *testing.T) {
	for _, c := range []struct {
		name string
		spec workload.Spec
	}{
		{"star-12", workload.Spec{Cat: workload.PaperSchema(), Topology: workload.Star, NumRelations: 12, Seed: 9}},
		{"chain-16", workload.Spec{Cat: workload.PaperSchema(), Topology: workload.Chain, NumRelations: 16, Seed: 16}},
	} {
		t.Run(c.name, func(t *testing.T) {
			qs, err := workload.Instances(c.spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			var st Stats
			allocs := testing.AllocsPerRun(2, func() {
				if _, st, err = Optimize(qs[0], Options{}); err != nil {
					t.Fatal(err)
				}
			})
			ratio := allocs / float64(st.PlansCosted)
			t.Logf("%.0f allocs for %d plans costed: %.3f per plan", allocs, st.PlansCosted, ratio)
			if ratio >= 0.15 {
				t.Errorf("%.3f allocations per plan costed, want < 0.15", ratio)
			}
		})
	}
}
