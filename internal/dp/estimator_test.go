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

// TestInjectedEstimatorParity checks that parallel enumeration under a
// non-default estimator is still bit-identical to the sequential engine.
// Workers run on Model.Fork, which drops memoized rows rather than copying
// them — this test (run under -race in CI) would catch a fork that leaked
// memo state derived from a different estimator, or an estimator whose
// answers aren't safe to read from several workers at once.
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
				mSeq := cost.NewModelEst(q, cost.DefaultParams(), inj)
				pSeq, stSeq, err := dp.Optimize(q, dp.Options{Model: mSeq})
				if err != nil {
					t.Fatalf("spec %d q%d band %g: sequential: %v", si, qi, band, err)
				}
				for _, workers := range []int{2, 4} {
					mPar := cost.NewModelEst(q, cost.DefaultParams(), inj)
					pPar, stPar, err := dp.Optimize(q, dp.Options{Workers: workers, Model: mPar})
					if err != nil {
						t.Fatalf("spec %d q%d band %g w=%d: parallel: %v", si, qi, band, workers, err)
					}
					label := fmt.Sprintf("spec %d q%d band %g w=%d", si, qi, band, workers)
					if math.Float64bits(pSeq.Cost) != math.Float64bits(pPar.Cost) {
						t.Errorf("%s: cost %v (seq) != %v (par)", label, pSeq.Cost, pPar.Cost)
					}
					if plan.Compare(pSeq, pPar) != 0 {
						t.Errorf("%s: plan shape diverged", label)
					}
					if stSeq.PlansCosted != stPar.PlansCosted {
						t.Errorf("%s: PlansCosted %d (seq) != %d (par)", label, stSeq.PlansCosted, stPar.PlansCosted)
					}
					if stSeq.Memo.ClassesCreated != stPar.Memo.ClassesCreated {
						t.Errorf("%s: ClassesCreated %d (seq) != %d (par)", label, stSeq.Memo.ClassesCreated, stPar.Memo.ClassesCreated)
					}
					if stSeq.Memo.PathsRetained != stPar.Memo.PathsRetained {
						t.Errorf("%s: PathsRetained %d (seq) != %d (par)", label, stSeq.Memo.PathsRetained, stPar.Memo.PathsRetained)
					}
					if stSeq.Memo.SimBytes != stPar.Memo.SimBytes {
						t.Errorf("%s: SimBytes %d (seq) != %d (par)", label, stSeq.Memo.SimBytes, stPar.Memo.SimBytes)
					}
				}
			}
		}
	}
}
