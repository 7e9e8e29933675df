package memo

import (
	"sync"
	"testing"

	"sdpopt/internal/bits"
	"sdpopt/internal/plan"
)

func TestShardedGetCreatesOnce(t *testing.T) {
	s := NewSharded()
	set := bits.Of(0, 1)
	calls := 0
	features := func() (float64, float64) { calls++; return 100, 0.5 }

	st, created := s.Get(set, features)
	if !created || st.Rows != 100 || st.Sel != 0.5 {
		t.Fatalf("first Get: created=%v staged=%+v", created, st)
	}
	st2, created := s.Get(set, features)
	if created || st2 != st {
		t.Fatal("second Get created a new class")
	}
	if calls != 1 {
		t.Fatalf("features ran %d times, want 1", calls)
	}
}

// TestShardedOfferMatchesAddPlan replays the same candidate stream into a
// staged class and a real memo class: the dominance rule must retain
// identical winners, and AddStaged must replay them into a fresh class
// reproducing that state exactly.
func TestShardedOfferMatchesAddPlan(t *testing.T) {
	set := bits.Of(0, 1, 2)
	candidates := []*plan.Plan{
		mkPlan(set, 100, plan.NoOrder),
		mkPlan(set, 70, 3),            // ordered, kept alongside best
		mkPlan(set, 90, 3),            // dominated within order 3
		mkPlan(set, 50, 1),            // new best, also ordered
		mkPlan(set, 60, 1),            // dominated: best already covers order 1 cheaper
		mkPlan(set, 80, plan.NoOrder), // dominated unordered
	}

	m := New(0)
	cls, _ := m.NewClass(set, 3, 10, 1)
	for _, p := range candidates {
		if _, err := m.AddPlan(cls, p); err != nil {
			t.Fatalf("AddPlan: %v", err)
		}
	}

	s := NewSharded()
	st, _ := s.Get(set, func() (float64, float64) { return 10, 1 })
	for _, p := range candidates {
		st.offer(path{plan: p}, nil, nil)
	}

	want := cls.Paths()
	if got := st.paths.appendPaths(nil, nil); len(got) != len(want) {
		t.Fatalf("staged %d paths, want %d (%v vs %v)", len(got), len(want), got, want)
	}
	// Replaying the staged winners into a fresh class must land in the
	// identical state — that replay is exactly what the drain does.
	m2 := New(0)
	cls2, _ := m2.NewClass(set, 3, 10, 1)
	if err := m2.AddStaged(cls2, st); err != nil {
		t.Fatalf("AddStaged: %v", err)
	}
	if m2.Stats.PathsRetained != m.Stats.PathsRetained {
		t.Fatalf("replay retained %d paths, want %d", m2.Stats.PathsRetained, m.Stats.PathsRetained)
	}
	replayed := cls2.Paths()
	for i := range want {
		if plan.Compare(replayed[i], want[i]) != 0 {
			t.Fatalf("path %d: replayed %+v, want %+v", i, replayed[i], want[i])
		}
	}
}

func TestShardedOfferDelta(t *testing.T) {
	s := NewSharded()
	set := bits.Of(1, 2)
	st, _ := s.Get(set, func() (float64, float64) { return 10, 1 })

	if d := st.offer(path{plan: mkPlan(set, 100, plan.NoOrder)}, nil, nil); d != 1 {
		t.Fatalf("first offer delta = %d, want 1", d)
	}
	if d := st.offer(path{plan: mkPlan(set, 110, 2)}, nil, nil); d != 1 {
		t.Fatalf("ordered offer delta = %d, want 1", d)
	}
	if d := st.offer(path{plan: mkPlan(set, 120, plan.NoOrder)}, nil, nil); d != 0 {
		t.Fatalf("dominated offer delta = %d, want 0", d)
	}
	// A new best carrying order 2 displaces the separate ordered path:
	// paths go from {best, ordered} to {best covering both} — delta -1.
	if d := st.offer(path{plan: mkPlan(set, 50, 2)}, nil, nil); d != -1 {
		t.Fatalf("covering best delta = %d, want -1", d)
	}
}

func TestShardedDrainCanonicalOrder(t *testing.T) {
	s := NewSharded()
	sets := []bits.Set{bits.Of(5, 6), bits.Of(0, 1), bits.Of(2, 9), bits.Of(3, 4)}
	for _, set := range sets {
		st, _ := s.Get(set, func() (float64, float64) { return 1, 1 })
		st.offer(path{plan: mkPlan(set, 10, plan.NoOrder)}, nil, nil)
	}
	drained := s.Drain()
	if len(drained) != len(sets) {
		t.Fatalf("Drain len = %d, want %d", len(drained), len(sets))
	}
	for i := 1; i < len(drained); i++ {
		if !drained[i-1].Set.Less(drained[i].Set) {
			t.Fatalf("Drain out of canonical order: %v before %v", drained[i-1].Set, drained[i].Set)
		}
	}
}

// TestShardedConcurrentOffers hammers one set and many distinct sets from
// several goroutines; the winner must be the global minimum regardless of
// interleaving, and every distinct set must surface exactly once.
func TestShardedConcurrentOffers(t *testing.T) {
	s := NewSharded()
	hot := bits.Of(0, 1)
	const workers = 8
	const perWorker = 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				st, _ := s.Get(hot, func() (float64, float64) { return 10, 1 })
				st.offer(path{plan: mkPlan(hot, float64(1000-w*perWorker-i), plan.NoOrder)}, nil, nil)
				// Two-bit sets (k%28, k/28) are pairwise distinct across
				// all 800 k values and stay within the 64-bit Set.
				k := w*perWorker + i
				cold := bits.Of(2+k%28, 31+k/28)
				cst, _ := s.Get(cold, func() (float64, float64) { return 1, 1 })
				cst.offer(path{plan: mkPlan(cold, 5, plan.NoOrder)}, nil, nil)
			}
		}(w)
	}
	wg.Wait()

	drained := s.Drain()
	if want := 1 + workers*perWorker; len(drained) != want {
		t.Fatalf("Drain len = %d, want %d", len(drained), want)
	}
	st, created := s.Get(hot, func() (float64, float64) { return 10, 1 })
	if created {
		t.Fatal("hot set recreated after the fact")
	}
	// Global minimum cost offered: 1000 - 7*100 - 99 = 201.
	if best := st.paths.best.cost(); best != 201 {
		t.Fatalf("hot best cost = %v, want 201", best)
	}
}
