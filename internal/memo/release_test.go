package memo

import (
	"testing"

	"sdpopt/internal/bits"
	"sdpopt/internal/obs"
	"sdpopt/internal/plan"
)

// fill creates a class for each of the sets 1..n (as bit patterns), at the
// level of its size, with one plan each.
func fill(t *testing.T, m *Memo, n int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		set := bits.FromWords(uint64(i))
		c, err := m.NewClass(set, set.Len(), 10, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.AddPlan(c, mkPlan(set, float64(i), plan.NoOrder)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReleaseEmptiesForReuse releases a populated memo and requires that
// Release reset everything a query wrote — classes, levels, plans, stats,
// callbacks, budget and metric handles — while keeping the storage, and that
// the next New hands that storage out (sync.Pool may drop a Put, under -race
// on purpose, so a few attempts are allowed).
func TestReleaseEmptiesForReuse(t *testing.T) {
	reused := false
	for attempt := 0; attempt < 20 && !reused; attempt++ {
		m := New(1 << 30)
		m.Nbrs = func(s bits.Set) bits.Set { return s }
		m.Observe(obs.New())
		fill(t, m, 300)
		m.Remove(m.Get(bits.FromWords(3)))
		chunks := len(m.cls.chunks)
		m.Release()
		switch {
		case len(m.classes) != 0 || m.cls.n != 0 || m.paths.n != 0 || len(m.levels) != 0 || len(m.plans) != 0:
			t.Fatalf("released memo holds %d classes, %d class slots, %d path slots, %d levels, %d plans",
				len(m.classes), m.cls.n, m.paths.n, len(m.levels), len(m.plans))
		case m.Stats != (Stats{}) || m.Nbrs != nil || m.Model != nil || m.Budget != 0:
			t.Fatalf("released memo keeps stats %+v, Nbrs set %v, Model %v, budget %d", m.Stats, m.Nbrs != nil, m.Model, m.Budget)
		case m.cCreated != nil || m.cPruned != nil || m.gAlive != nil || m.gSim != nil || m.gPeak != nil:
			t.Fatal("released memo keeps its metric handles")
		case len(m.cls.chunks) != chunks:
			t.Fatalf("released memo has %d class chunks, had %d", len(m.cls.chunks), chunks)
		}
		n := New(7)
		if n != m {
			continue
		}
		reused = true
		if n.Budget != 7 {
			t.Errorf("reused memo's budget = %d, want 7", n.Budget)
		}
		n.Budget = 0
		if n.Get(bits.FromWords(1)) != nil || len(n.AppendLevel(nil, 1)) != 0 {
			t.Fatal("reused memo still answers an earlier query's classes")
		}
		// A smaller query, then a larger one than before, on the same storage.
		fill(t, n, 20)
		if n.Stats.ClassesCreated != 20 || n.Stats.PathsRetained != 20 || len(n.AppendLevel(nil, 1)) != 5 {
			t.Fatalf("reused memo after 20 classes: %+v, %d at level 1", n.Stats, len(n.AppendLevel(nil, 1)))
		}
		n.Release()
		n = New(0)
		fill(t, n, 600)
		if n.Stats.ClassesCreated != 600 || len(n.AppendLevel(nil, 9)) != 1 {
			t.Fatalf("memo after 600 classes: %+v, %d at level 9", n.Stats, len(n.AppendLevel(nil, 9)))
		}
		n.Release()
	}
	if !reused {
		t.Fatal("New never returned the released memo in 20 attempts")
	}
}

// TestReleaseDropsOverCap requires that a memo whose class arena grew past
// maxPooledChunks chunks is not kept for reuse.
func TestReleaseDropsOverCap(t *testing.T) {
	m := New(0)
	fill(t, m, firstChunk<<maxPooledChunks) // one class more than the cap holds
	if len(m.cls.chunks) <= maxPooledChunks {
		t.Fatalf("%d class chunks, want more than %d", len(m.cls.chunks), maxPooledChunks)
	}
	m.Release()
	for range 20 {
		n := New(0)
		if n == m {
			t.Fatal("New returned a memo over the chunk cap")
		}
		n.Release()
	}
}
