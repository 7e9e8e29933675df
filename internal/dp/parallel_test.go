package dp

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"sdpopt/internal/memo"
	"sdpopt/internal/workload"
)

// corpusSpecs is the differential-test workload: every topology of the
// paper's generator across the 5–20 relation range (star capped where
// exhaustive DP stays tractable), plus ordered and filtered variants so
// interesting-order retention and local filters are covered.
type corpusEntry struct {
	name string
	spec workload.Spec
	n    int // instances
}

func corpusSpecs() []corpusEntry {
	cat := workload.PaperSchema()
	var out []corpusEntry
	for _, n := range []int{5, 10, 15, 20} {
		out = append(out, corpusEntry{
			name: fmt.Sprintf("chain-%d", n),
			spec: workload.Spec{Cat: cat, Topology: workload.Chain, NumRelations: n, Seed: int64(n)},
			n:    2,
		})
	}
	for _, n := range []int{5, 10, 15} {
		out = append(out, corpusEntry{
			name: fmt.Sprintf("cycle-%d", n),
			spec: workload.Spec{Cat: cat, Topology: workload.Cycle, NumRelations: n, Seed: int64(100 + n)},
			n:    2,
		})
	}
	// Exhaustive DP on a star is exponential in classes; 12 relations is the
	// largest size that stays quick under -race.
	for _, n := range []int{5, 8, 10, 12} {
		out = append(out, corpusEntry{
			name: fmt.Sprintf("star-%d", n),
			spec: workload.Spec{Cat: cat, Topology: workload.Star, NumRelations: n, Seed: int64(200 + n)},
			n:    2,
		})
	}
	out = append(out, corpusEntry{
		name: "starchain-15",
		spec: workload.Spec{Cat: cat, Topology: workload.StarChain, NumRelations: 15, Seed: 315},
		n:    1,
	})
	out = append(out, corpusEntry{
		name: "chain-8-ordered",
		spec: workload.Spec{Cat: cat, Topology: workload.Chain, NumRelations: 8, Ordered: true, Seed: 408},
		n:    2,
	})
	out = append(out, corpusEntry{
		name: "cycle-7-filtered",
		spec: workload.Spec{Cat: cat, Topology: workload.Cycle, NumRelations: 7, FilterFraction: 0.5, Seed: 507},
		n:    2,
	})
	return out
}

// TestParallelMatchesSequential is the determinism property test: across the
// full workload-generator corpus, parallel enumeration at several worker
// counts produces results identical to the sequential engine. Run under
// -race in CI.
func TestParallelMatchesSequential(t *testing.T) {
	for _, ce := range corpusSpecs() {
		ce := ce
		t.Run(ce.name, func(t *testing.T) {
			t.Parallel()
			qs, err := workload.Instances(ce.spec, ce.n)
			if err != nil {
				t.Fatalf("Instances: %v", err)
			}
			for qi, q := range qs {
				pSeq, stSeq, err := Optimize(q, Options{})
				if err != nil {
					t.Fatalf("q%d: sequential: %v", qi, err)
				}
				for _, workers := range []int{2, 4, 8} {
					pPar, stPar, err := Optimize(q, Options{Workers: workers})
					if err != nil {
						t.Fatalf("q%d w=%d: parallel: %v", qi, workers, err)
					}
					sameRun(t, fmt.Sprintf("q%d w=%d", qi, workers), pSeq, stSeq, pPar, stPar)
				}
			}
		})
	}
}

// TestLeftDeepParity covers the restricted System R space, whose split
// structure (only (1, k-1)) exercises the task partitioning differently.
func TestLeftDeepParity(t *testing.T) {
	cat := workload.PaperSchema()
	qs, err := workload.Instances(workload.Spec{Cat: cat, Topology: workload.StarChain, NumRelations: 12, Seed: 7}, 2)
	if err != nil {
		t.Fatalf("Instances: %v", err)
	}
	for qi, q := range qs {
		pSeq, stSeq, err := Optimize(q, Options{LeftDeepOnly: true})
		if err != nil {
			t.Fatalf("q%d: sequential: %v", qi, err)
		}
		pPar, stPar, err := Optimize(q, Options{Workers: 4, LeftDeepOnly: true})
		if err != nil {
			t.Fatalf("q%d: parallel: %v", qi, err)
		}
		sameRun(t, fmt.Sprintf("q%d", qi), pSeq, stSeq, pPar, stPar)
	}
}

// TestHookParity installs a pruning hook (drop the most expensive class per
// level, as SDP would) and checks both engines present identical canonical
// hook inputs and reach identical results.
func TestHookParity(t *testing.T) {
	cat := workload.PaperSchema()
	q, err := workload.One(workload.Spec{Cat: cat, Topology: workload.Star, NumRelations: 10, Seed: 42})
	if err != nil {
		t.Fatalf("One: %v", err)
	}
	hook := func(record *[][]string) LevelHook {
		return func(level int, m *memo.Memo, created []*memo.Class) error {
			var sets []string
			for _, c := range created {
				sets = append(sets, fmt.Sprint(c.Set))
			}
			*record = append(*record, sets)
			if level >= 2 && level < q.NumRelations()-2 && len(created) > 1 {
				worst := created[0]
				for _, c := range created[1:] {
					if c.BestCost() > worst.BestCost() {
						worst = c
					}
				}
				m.Remove(worst)
			}
			return nil
		}
	}
	var seqSeen, parSeen [][]string
	pSeq, stSeq, err := Optimize(q, Options{Hook: hook(&seqSeen)})
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	pPar, stPar, err := Optimize(q, Options{Workers: 4, Hook: hook(&parSeen)})
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	sameRun(t, "hooked", pSeq, stSeq, pPar, stPar)
	if len(seqSeen) != len(parSeen) {
		t.Fatalf("hook invocations: %d (seq) != %d (par)", len(seqSeen), len(parSeen))
	}
	for i := range seqSeen {
		if fmt.Sprint(seqSeen[i]) != fmt.Sprint(parSeen[i]) {
			t.Errorf("hook input %d diverged:\nseq: %v\npar: %v", i, seqSeen[i], parSeen[i])
		}
	}
}

// TestParallelBudgetAbort checks that an infeasible budget aborts the parallel run
// with memo.ErrBudget, same as the sequential engine, and that stats remain
// readable.
func TestParallelBudgetAbort(t *testing.T) {
	cat := workload.PaperSchema()
	q, err := workload.One(workload.Spec{Cat: cat, Topology: workload.Star, NumRelations: 12, Seed: 3})
	if err != nil {
		t.Fatalf("One: %v", err)
	}
	budget := int64(256 * 1024)
	_, _, errSeq := Optimize(q, Options{Budget: budget})
	if !errors.Is(errSeq, memo.ErrBudget) {
		t.Fatalf("sequential err = %v, want ErrBudget", errSeq)
	}
	for _, workers := range []int{2, 8} {
		_, st, errPar := Optimize(q, Options{Workers: workers, Budget: budget})
		if !errors.Is(errPar, memo.ErrBudget) {
			t.Fatalf("w=%d: parallel err = %v, want ErrBudget", workers, errPar)
		}
		if st.Elapsed <= 0 {
			t.Errorf("w=%d: Elapsed not populated on budget abort", workers)
		}
	}
}

// TestSeedLevelBudgetAbort drives the abort into NewEngine's level-1
// seeding, the path where the engine is returned alongside the error.
func TestSeedLevelBudgetAbort(t *testing.T) {
	cat := workload.PaperSchema()
	q, err := workload.One(workload.Spec{Cat: cat, Topology: workload.Chain, NumRelations: 5, Seed: 1})
	if err != nil {
		t.Fatalf("One: %v", err)
	}
	_, st, errPar := Optimize(q, Options{Workers: 2, Budget: 1})
	if !errors.Is(errPar, memo.ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", errPar)
	}
	if st.Elapsed <= 0 {
		t.Error("Elapsed not populated on seed-level abort")
	}
}

// TestCancellation checks a pre-canceled context aborts promptly with
// ErrCanceled from the worker pool.
func TestCancellation(t *testing.T) {
	cat := workload.PaperSchema()
	q, err := workload.One(workload.Spec{Cat: cat, Topology: workload.Chain, NumRelations: 12, Seed: 9})
	if err != nil {
		t.Fatalf("One: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, errPar := Optimize(q, Options{Workers: 4, Ctx: ctx})
	if !errors.Is(errPar, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", errPar)
	}
}
