package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"sdpopt"
)

// relTol is the relative tolerance of the cost checks: engines are
// deterministic, so anything beyond float rounding is a wrong answer.
const relTol = 1e-9

// optimizeWith runs one engine through the facade, the way the server's
// dispatch does.
func optimizeWith(ctx context.Context, technique string, q *sdpopt.Query) (*sdpopt.Plan, sdpopt.Stats, error) {
	switch technique {
	case "dp":
		return sdpopt.OptimizeDP(q, sdpopt.DPOptions{Budget: sdpopt.DefaultBudget, Ctx: ctx})
	case "sdp":
		o := sdpopt.SDPOptions()
		o.Budget, o.Ctx = sdpopt.DefaultBudget, ctx
		return sdpopt.OptimizeSDP(q, o)
	case "idp2":
		o := sdpopt.IDPDefaults()
		o.Budget, o.Ctx = sdpopt.DefaultBudget, ctx
		return sdpopt.OptimizeIDP2(q, o)
	case "greedy":
		return sdpopt.OptimizeGreedy(q, sdpopt.GreedyOptions{Ctx: ctx})
	}
	return nil, sdpopt.Stats{}, fmt.Errorf("benchmark: no facade entry point for technique %q", technique)
}

// referencePool generates cfg's pool and fills in the reference cost of its
// first limit entries (all when limit is 0) on cfg.clients goroutines. An
// entry whose reference is the engine it requests anyway still gets this
// independent run: the reference never comes from the server.
func referencePool(cfg config, limit int) (*pool, error) {
	p, err := buildPool(sdpopt.PaperSchema(), cfg.w, cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	if limit <= 0 || limit > len(p.entries) {
		limit = len(p.entries)
	}
	workers := cfg.clients
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= limit {
					return
				}
				e := &p.entries[i]
				plan, _, err := optimizeWith(context.Background(), e.ref, e.queries[0])
				if err != nil {
					errs[w] = fmt.Errorf("reference %s for %s: %w", e.ref, e.label, err)
					return
				}
				e.refCost = plan.Cost
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// shapeRelations returns the relation names of a one-line plan shape such
// as "((R1 ⋈ R3) ⋈ R2)", sorted.
func shapeRelations(shape string) []string {
	names := strings.FieldsFunc(shape, func(r rune) bool {
		return r == '(' || r == ')' || r == ' ' || r == '⋈'
	})
	sort.Strings(names)
	return names
}

// checkShape reports whether shape joins exactly the wanted relations (given
// sorted), each once.
func checkShape(shape string, want []string) error {
	got := shapeRelations(shape)
	if len(got) != len(want) {
		return fmt.Errorf("shape has %d relations, query has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("shape relation %q where the query has %q", got[i], want[i])
		}
	}
	return nil
}

// checker verifies answers against the pool. It remembers the first cost
// each explicit-technique entry was served so that a later answer to the
// same query, in any spelling, must repeat it.
type checker struct {
	pool      *pool
	firstCost []atomic.Uint64 // math.Float64bits; 0 = none seen
}

func newChecker(p *pool) *checker {
	return &checker{pool: p, firstCost: make([]atomic.Uint64, len(p.entries))}
}

// check returns nil for a correct answer.
func (c *checker) check(entry int, status int, resp *optimizeResponse) error {
	e := &c.pool.entries[entry]
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, resp.Error)
	}
	if resp.BudgetExceeded {
		return fmt.Errorf("budget exceeded: %s", resp.Error)
	}
	if err := checkShape(resp.Shape, e.relNames); err != nil {
		return err
	}
	if !(resp.Cost > 0) || math.IsInf(resp.Cost, 0) {
		return fmt.Errorf("cost %v is not finite and positive", resp.Cost)
	}
	if e.ref == "dp" {
		if resp.Cost < e.refCost*(1-relTol) {
			return fmt.Errorf("cost %v undercuts the DP reference %v", resp.Cost, e.refCost)
		}
		if resp.Technique == "dp" && resp.Cost > e.refCost*(1+relTol) {
			return fmt.Errorf("dp cost %v differs from the DP reference %v", resp.Cost, e.refCost)
		}
	}
	if e.technique != "auto" {
		bits := math.Float64bits(resp.Cost)
		if !c.firstCost[entry].CompareAndSwap(0, bits) {
			first := math.Float64frombits(c.firstCost[entry].Load())
			if math.Abs(resp.Cost-first) > relTol*first {
				return fmt.Errorf("cost %v differs from the %v served earlier for the same query", resp.Cost, first)
			}
		}
	}
	return nil
}
