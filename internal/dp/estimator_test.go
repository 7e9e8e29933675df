// External test package: ce imports core, which imports dp, so this file
// cannot live in package dp without a cycle.
package dp_test

import (
	"fmt"
	"math"
	"testing"

	"sdpopt/internal/ce"
	"sdpopt/internal/cost"
	"sdpopt/internal/dp"
	"sdpopt/internal/plan"
	"sdpopt/internal/workload"
)

// TestInjectedEstimatorParity checks that the indexed walk stays
// bit-identical to the naive reference under a non-default estimator. They
// consider pairs in different numbers and so ask the model different
// questions, so this would catch memo state that depends on what was
// estimated first, or an estimator whose answers depend on the order it is
// asked in.
func TestInjectedEstimatorParity(t *testing.T) {
	cat := workload.PaperSchema()
	specs := []workload.Spec{
		{Cat: cat, Topology: workload.Chain, NumRelations: 12, Seed: 901},
		{Cat: cat, Topology: workload.Star, NumRelations: 10, Seed: 902},
		{Cat: cat, Topology: workload.StarChain, NumRelations: 12, Ordered: true, Seed: 903},
	}
	for si, spec := range specs {
		qs, err := workload.Instances(spec, 2)
		if err != nil {
			t.Fatalf("spec %d: Instances: %v", si, err)
		}
		for qi, q := range qs {
			for _, band := range []float64{1, 4} {
				inj, err := ce.NewInjector(q, nil, band, 31337, ce.ModeBoth)
				if err != nil {
					t.Fatalf("NewInjector: %v", err)
				}
				run := func(enum dp.EnumMode) (*plan.Plan, dp.Stats) {
					p, st, err := dp.Optimize(q, dp.Options{Enum: enum, Model: cost.NewModelEst(q, cost.DefaultParams(), inj)})
					if err != nil {
						t.Fatalf("spec %d q%d band %g %v: %v", si, qi, band, enum, err)
					}
					return p, st
				}
				pRef, stRef := run(dp.EnumNaive)
				p, st := run(dp.EnumIndexed)
				label := fmt.Sprintf("spec %d q%d band %g", si, qi, band)
				if math.Float64bits(pRef.Cost) != math.Float64bits(p.Cost) {
					t.Errorf("%s: cost %v, naive %v", label, p.Cost, pRef.Cost)
				}
				if plan.Compare(pRef, p) != 0 {
					t.Errorf("%s: plan shape diverged from naive", label)
				}
				if stRef.PlansCosted != st.PlansCosted {
					t.Errorf("%s: PlansCosted %d, naive %d", label, st.PlansCosted, stRef.PlansCosted)
				}
				if stRef.Memo.ClassesCreated != st.Memo.ClassesCreated {
					t.Errorf("%s: ClassesCreated %d, naive %d", label, st.Memo.ClassesCreated, stRef.Memo.ClassesCreated)
				}
				if stRef.Memo.PathsRetained != st.Memo.PathsRetained {
					t.Errorf("%s: PathsRetained %d, naive %d", label, st.Memo.PathsRetained, stRef.Memo.PathsRetained)
				}
				if stRef.Memo.SimBytes != st.Memo.SimBytes {
					t.Errorf("%s: SimBytes %d, naive %d", label, st.Memo.SimBytes, stRef.Memo.SimBytes)
				}
			}
		}
	}
}
