package ce

import (
	"fmt"

	"sdpopt/internal/cost"
	"sdpopt/internal/dp"
	"sdpopt/internal/exec"
	"sdpopt/internal/obs"
	"sdpopt/internal/plan"
	"sdpopt/internal/workload"
)

// ExecReport validates the "true" cost model itself against ground truth:
// the re-costing step trusts the catalog statistics, so this pass executes
// a small query's optimal plan via internal/exec and compares every join
// node's actual row count with the true model's estimate. It also proves
// result equivalence: the plan chosen under the worst lie and the plan
// chosen under truth must produce identical result multisets.
type ExecReport struct {
	Graph   string `json:"graph"`
	MaxRows int    `json:"max_rows"`
	// JoinNodes is how many intermediate results were executed and
	// compared.
	JoinNodes int `json:"join_nodes"`
	// ModelQErr* summarize the true model's q-error against executed
	// cardinalities — how honest the "truth" used for ρ really is.
	ModelQErrP50 float64 `json:"model_qerr_p50"`
	ModelQErrP95 float64 `json:"model_qerr_p95"`
	ModelQErrMax float64 `json:"model_qerr_max"`
	// WorstBand is the error band whose chosen plan was executed for the
	// equivalence check.
	WorstBand float64 `json:"worst_band"`
	// FingerprintsMatch reports whether the worst-band plan and the true
	// plan produced identical result multisets.
	FingerprintsMatch bool `json:"fingerprints_match"`
}

// execValidate runs the execution pass on the paper's 9-relation example
// query — small enough to materialize every intermediate result.
func execValidate(cfg *Config) (*ExecReport, error) {
	q, err := workload.Example9(cfg.Cat)
	if err != nil {
		return nil, err
	}
	params := cost.DefaultParams()
	pTrue, _, err := dp.Optimize(q, dp.Options{Model: cost.NewModel(q, params), Budget: cfg.Budget})
	if err != nil {
		return nil, err
	}
	db, err := exec.Generate(q, cfg.Seed, cfg.ExecMaxRows)
	if err != nil {
		return nil, err
	}

	// Execute every join subtree of the true-optimal plan and q-error the
	// true model's cardinality against the actual row count.
	var joins []*plan.Plan
	collectJoins(pTrue, &joins)
	var qerrs []float64
	ob := obs.Or(cfg.Obs)
	for _, j := range joins {
		t, err := db.Run(j)
		if err != nil {
			return nil, fmt.Errorf("executing %v: %w", j.Rels, err)
		}
		qe := qerror(j.Rows, float64(t.NumRows()))
		qerrs = append(qerrs, qe)
		ob.Histogram(obs.MCEExecQError, obs.RatioBuckets).Observe(qe)
	}

	// Result equivalence under the worst lie: optimization may pick a
	// different join order, but the answer must be the same multiset.
	worst := maxOf(cfg.Bands)
	inj, err := NewInjector(q, nil, worst, cfg.Seed, cfg.Mode)
	if err != nil {
		return nil, err
	}
	pLie, _, err := dp.Optimize(q, dp.Options{Model: cost.NewModelEst(q, params, inj), Budget: cfg.Budget})
	if err != nil {
		return nil, err
	}
	tTrue, err := db.Run(pTrue)
	if err != nil {
		return nil, err
	}
	tLie, err := db.Run(pLie)
	if err != nil {
		return nil, err
	}

	return &ExecReport{
		Graph:             "Example-9",
		MaxRows:           cfg.ExecMaxRows,
		JoinNodes:         len(joins),
		ModelQErrP50:      quantile(qerrs, 0.5),
		ModelQErrP95:      quantile(qerrs, 0.95),
		ModelQErrMax:      maxOf(qerrs),
		WorstBand:         worst,
		FingerprintsMatch: tTrue.Fingerprint() == tLie.Fingerprint(),
	}, nil
}

func collectJoins(p *plan.Plan, out *[]*plan.Plan) {
	if p == nil {
		return
	}
	if p.Op.IsJoin() {
		*out = append(*out, p)
	}
	collectJoins(p.Left, out)
	collectJoins(p.Right, out)
}
