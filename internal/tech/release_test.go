package tech

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"sdpopt/internal/dp"
	"sdpopt/internal/plan"
	"sdpopt/internal/query"
	"sdpopt/internal/workload"
)

// reuseRun is one technique's answer on one query.
type reuseRun struct {
	label string
	plan  *plan.Plan
	st    dp.Stats
}

// reuseSequence is big, small and big queries in an order that makes each
// engine's memo reuse the storage of a differently shaped one: a Chain-20
// after a Star-10 grows the level lists past what the star left, and the
// small queries run on storage a big one grew. Every shape comes with and
// without an ORDER BY.
func reuseSequence(t *testing.T) []*query.Query {
	t.Helper()
	cat := workload.PaperSchema()
	var qs []*query.Query
	for _, ordered := range []bool{false, true} {
		for _, s := range []struct {
			topo workload.Topology
			n    int
		}{
			{workload.Star, 10}, {workload.Chain, 20}, {workload.Cycle, 4},
			{workload.StarChain, 12}, {workload.Chain, 3}, {workload.Star, 9},
		} {
			q, err := workload.One(workload.Spec{Cat: cat, Topology: s.topo, NumRelations: s.n, Seed: int64(10*s.n + len(qs)), Ordered: ordered})
			if err != nil {
				t.Fatal(err)
			}
			qs = append(qs, q)
		}
	}
	return qs
}

// runSequence runs every table entry over qs in order. With fresh set, it
// empties the memo pool before each run (sync.Pool drops its contents over
// two collections), so every engine starts on new storage.
func runSequence(qs []*query.Query, fresh bool) ([]reuseRun, error) {
	var out []reuseRun
	for i, q := range qs {
		for _, name := range Names() {
			if fresh {
				runtime.GC()
				runtime.GC()
			}
			p, st, err := Run(context.Background(), name, q, Options{})
			label := fmt.Sprintf("query %d (%d rels, ordered %v)/%s", i, q.NumRelations(), q.OrderBy != nil, name)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", label, err)
			}
			out = append(out, reuseRun{label, p, st})
		}
	}
	return out, nil
}

// sameRun compares the hardware-independent parts of two runs: the plan, the
// memo's counts and the costing and pair counters.
func sameRun(got, want reuseRun) error {
	g, w := got.st, want.st
	switch {
	case plan.Compare(got.plan, want.plan) != 0:
		return fmt.Errorf("%s: plan %v, want %v", got.label, got.plan, want.plan)
	case g.Memo != w.Memo:
		return fmt.Errorf("%s: memo stats %+v, want %+v", got.label, g.Memo, w.Memo)
	case g.PlansCosted != w.PlansCosted || g.PairsConsidered != w.PairsConsidered || g.PairsConnected != w.PairsConnected:
		return fmt.Errorf("%s: costed %d, pairs %d/%d, want %d, %d/%d", got.label,
			g.PlansCosted, g.PairsConsidered, g.PairsConnected, w.PlansCosted, w.PairsConsidered, w.PairsConnected)
	}
	return nil
}

// TestReleasedMemoReuse requires that an engine running on a memo another
// optimization released answers exactly as on fresh storage: the same plan,
// memo counts, plans costed and pair counts, for every table entry. The
// sequence runs twice back to back, so the second pass reuses the storage of
// the first pass's largest queries.
func TestReleasedMemoReuse(t *testing.T) {
	qs := reuseSequence(t)
	want, err := runSequence(qs, true)
	if err != nil {
		t.Fatal(err)
	}
	for pass := range 2 {
		got, err := runSequence(qs, false)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if err := sameRun(got[i], want[i]); err != nil {
				t.Errorf("pass %d: %v", pass, err)
			}
		}
	}
}

// TestReleasedMemoConcurrent runs the sequence from four goroutines at once,
// so memos pass between them through the pool, and requires each answer to
// equal the sequential one. Run it under -race.
func TestReleasedMemoConcurrent(t *testing.T) {
	qs := reuseSequence(t)
	want, err := runSequence(qs, false)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := runSequence(qs, false)
			if err != nil {
				errs[g] = err
				return
			}
			for i := range got {
				if err := sameRun(got[i], want[i]); err != nil {
					errs[g] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
}
