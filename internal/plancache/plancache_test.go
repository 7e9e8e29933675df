package plancache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sdpopt/internal/dp"
	"sdpopt/internal/plan"
)

func mkKey(i int) Key {
	return Key{Fingerprint: fmt.Sprintf("fp%04d", i), Technique: "sdp", CatalogVersion: "v1"}
}

func mkPlan(cost float64) *plan.Plan {
	return &plan.Plan{Cost: cost}
}

func TestHitMiss(t *testing.T) {
	c := New(Options{})
	computes := 0
	compute := func() (*plan.Plan, dp.Stats, error) {
		computes++
		return mkPlan(42), dp.Stats{PlansCosted: 7}, nil
	}
	p, st, src, err := c.Do(mkKey(1), compute)
	if err != nil || src != Miss || p.Cost != 42 || st.PlansCosted != 7 {
		t.Fatalf("first Do: p=%v st=%v src=%v err=%v", p, st, src, err)
	}
	p, st, src, err = c.Do(mkKey(1), compute)
	if err != nil || src != Hit || p.Cost != 42 || st.PlansCosted != 7 {
		t.Fatalf("second Do: p=%v st=%v src=%v err=%v", p, st, src, err)
	}
	if computes != 1 {
		t.Fatalf("computes = %d, want 1", computes)
	}
	ct := c.Counts()
	if ct.Hits != 1 || ct.Misses != 1 || ct.Entries != 1 {
		t.Fatalf("counts = %+v", ct)
	}
	if got := ct.HitRate(); got != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", got)
	}
}

// Distinct techniques and catalog versions must not share entries even for
// the same fingerprint.
func TestKeyNamespacing(t *testing.T) {
	c := New(Options{})
	keys := []Key{
		{Fingerprint: "fp", Technique: "dp", CatalogVersion: "v1"},
		{Fingerprint: "fp", Technique: "sdp", CatalogVersion: "v1"},
		{Fingerprint: "fp", Technique: "dp", CatalogVersion: "v2"},
	}
	for i, k := range keys {
		cost := float64(i)
		_, _, src, err := c.Do(k, func() (*plan.Plan, dp.Stats, error) {
			return mkPlan(cost), dp.Stats{}, nil
		})
		if err != nil || src != Miss {
			t.Fatalf("key %d: src=%v err=%v", i, src, err)
		}
	}
	for i, k := range keys {
		p, _, ok := c.Get(k)
		if !ok || p.Cost != float64(i) {
			t.Fatalf("key %d: got %v ok=%v", i, p, ok)
		}
	}
}

func TestLRUEviction(t *testing.T) {
	// Single shard so the LRU order is global and deterministic.
	c := New(Options{MaxEntries: 4, Shards: 1})
	for i := 0; i < 4; i++ {
		cost := float64(i)
		c.Do(mkKey(i), func() (*plan.Plan, dp.Stats, error) { return mkPlan(cost), dp.Stats{}, nil })
	}
	// Touch key 0 so key 1 is now the oldest.
	if _, _, src, _ := c.Do(mkKey(0), nil); src != Hit {
		t.Fatalf("key 0 src=%v, want Hit", src)
	}
	c.Do(mkKey(4), func() (*plan.Plan, dp.Stats, error) { return mkPlan(4), dp.Stats{}, nil })
	if _, _, ok := c.Get(mkKey(1)); ok {
		t.Fatal("key 1 should have been evicted")
	}
	for _, i := range []int{0, 2, 3, 4} {
		if _, _, ok := c.Get(mkKey(i)); !ok {
			t.Fatalf("key %d should still be cached", i)
		}
	}
	ct := c.Counts()
	if ct.Evictions != 1 || ct.Entries != 4 {
		t.Fatalf("counts = %+v", ct)
	}
}

// TestSingleflight verifies the dedup guarantee: N concurrent misses on one
// key run exactly one compute; everyone gets its result.
func TestSingleflight(t *testing.T) {
	c := New(Options{})
	const n = 32
	var computes atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	var srcMiss, srcDedup atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			p, _, src, err := c.Do(mkKey(9), func() (*plan.Plan, dp.Stats, error) {
				computes.Add(1)
				time.Sleep(20 * time.Millisecond) // hold the flight open
				return mkPlan(9), dp.Stats{}, nil
			})
			if err != nil || p.Cost != 9 {
				t.Errorf("Do: p=%v err=%v", p, err)
			}
			switch src {
			case Miss:
				srcMiss.Add(1)
			case Dedup:
				srcDedup.Add(1)
			}
		}()
	}
	close(gate)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("computes = %d, want exactly 1", got)
	}
	// Goroutines arriving after the flight closed see a Hit; all others
	// dedup onto the single miss.
	ct := c.Counts()
	if ct.Misses != 1 || srcMiss.Load() != 1 {
		t.Fatalf("misses = %d (src miss %d), want 1", ct.Misses, srcMiss.Load())
	}
	if ct.Dedups+ct.Hits != n-1 {
		t.Fatalf("dedups %d + hits %d != %d", ct.Dedups, ct.Hits, n-1)
	}
}

// TestComputePanicReleasesKey: a compute that panics hands the panic to its
// own caller, releases the coalesced waiter with an error, and leaves the
// key computable by the next caller instead of blocking it for good.
func TestComputePanicReleasesKey(t *testing.T) {
	c := New(Options{})
	release := make(chan struct{})
	panicked := make(chan any)
	go func() {
		defer func() { panicked <- recover() }()
		c.Do(mkKey(3), func() (*plan.Plan, dp.Stats, error) {
			<-release
			panic("engine bug")
		})
	}()
	for c.Counts().Misses == 0 {
		time.Sleep(time.Millisecond)
	}
	waited := make(chan error)
	go func() {
		_, _, _, err := c.Do(mkKey(3), func() (*plan.Plan, dp.Stats, error) {
			t.Error("waiter ran its own compute")
			return mkPlan(3), dp.Stats{}, nil
		})
		waited <- err
	}()
	for c.Counts().Dedups == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if v := <-panicked; v != "engine bug" {
		t.Fatalf("computing caller recovered %v, want the panic", v)
	}
	if err := <-waited; !errors.Is(err, errComputePanicked) {
		t.Fatalf("waiter got %v, want errComputePanicked", err)
	}
	p, _, src, err := c.Do(mkKey(3), func() (*plan.Plan, dp.Stats, error) { return mkPlan(3), dp.Stats{}, nil })
	if err != nil || src != Miss || p.Cost != 3 {
		t.Fatalf("next caller: p=%v src=%v err=%v, want a fresh miss", p, src, err)
	}
}

func TestErrorsNotCached(t *testing.T) {
	c := New(Options{})
	boom := errors.New("boom")
	_, _, src, err := c.Do(mkKey(1), func() (*plan.Plan, dp.Stats, error) {
		return nil, dp.Stats{}, boom
	})
	if !errors.Is(err, boom) || src != Miss {
		t.Fatalf("first Do: src=%v err=%v", src, err)
	}
	if c.Len() != 0 {
		t.Fatalf("len = %d after failed compute, want 0", c.Len())
	}
	// The next caller retries and the success is cached.
	_, _, src, err = c.Do(mkKey(1), func() (*plan.Plan, dp.Stats, error) {
		return mkPlan(1), dp.Stats{}, nil
	})
	if err != nil || src != Miss {
		t.Fatalf("retry Do: src=%v err=%v", src, err)
	}
	if _, _, ok := c.Get(mkKey(1)); !ok {
		t.Fatal("successful retry not cached")
	}
}

func TestInvalidate(t *testing.T) {
	c := New(Options{})
	for i := 0; i < 3; i++ {
		k := mkKey(i)
		c.Do(k, func() (*plan.Plan, dp.Stats, error) { return mkPlan(0), dp.Stats{}, nil })
	}
	k2 := Key{Fingerprint: "fp", Technique: "sdp", CatalogVersion: "v2"}
	c.Do(k2, func() (*plan.Plan, dp.Stats, error) { return mkPlan(0), dp.Stats{}, nil })

	if n := c.Invalidate("v2"); n != 3 {
		t.Fatalf("invalidated %d, want 3", n)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
	if _, _, ok := c.Get(k2); !ok {
		t.Fatal("current-version entry dropped by Invalidate")
	}
	ct := c.Counts()
	if ct.Invalidated != 3 {
		t.Fatalf("counts = %+v", ct)
	}
	c.Clear()
	if c.Len() != 0 {
		t.Fatalf("len = %d after Clear, want 0", c.Len())
	}
}

func TestShardedCapacity(t *testing.T) {
	c := New(Options{MaxEntries: 64, Shards: 8})
	for i := 0; i < 1000; i++ {
		cost := float64(i)
		c.Do(mkKey(i), func() (*plan.Plan, dp.Stats, error) { return mkPlan(cost), dp.Stats{}, nil })
	}
	if n := c.Len(); n > 64 {
		t.Fatalf("len = %d, exceeds MaxEntries 64", n)
	}
}
