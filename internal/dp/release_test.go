package dp_test

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"sdpopt/internal/core"
	"sdpopt/internal/dp"
	"sdpopt/internal/idp"
	"sdpopt/internal/memo"
	"sdpopt/internal/obs"
	"sdpopt/internal/plan"
	"sdpopt/internal/query"
	"sdpopt/internal/testutil"
	"sdpopt/internal/workload"
)

// TestMemoGaugesReturnToZero runs every engine owner — DP, SDP, IDP1 and
// IDP2 — plus a budget abort and a canceled run on one observer, and
// requires the alive-classes and simulated-bytes gauges to read 0 once they
// have all returned: each owner releases its memo on every path, and
// releasing takes the memo off the gauges. The peak gauge keeps its maximum.
func TestMemoGaugesReturnToZero(t *testing.T) {
	q, err := workload.One(workload.Spec{Cat: workload.PaperSchema(), Topology: workload.Star, NumRelations: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ob := obs.New()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	idp1 := idp.DefaultOptions()
	idp1.K, idp1.Obs = 4, ob
	idp2 := idp.DefaultOptions()
	idp2.K, idp2.Obs = 4, ob
	sdp := core.DefaultOptions()
	sdp.Obs = ob
	var peak int64
	for _, r := range []struct {
		name    string
		run     func() (*plan.Plan, dp.Stats, error)
		wantErr error
	}{
		{"DP", func() (*plan.Plan, dp.Stats, error) { return dp.Optimize(q, dp.Options{Obs: ob}) }, nil},
		{"SDP", func() (*plan.Plan, dp.Stats, error) { return core.Optimize(q, sdp) }, nil},
		{"IDP1", func() (*plan.Plan, dp.Stats, error) { return idp.Optimize(q, idp1) }, nil},
		{"IDP2", func() (*plan.Plan, dp.Stats, error) { return idp.Optimize2(q, idp2) }, nil},
		{"budget abort", func() (*plan.Plan, dp.Stats, error) { return dp.Optimize(q, dp.Options{Obs: ob, Budget: 64 * 1024}) }, memo.ErrBudget},
		{"canceled", func() (*plan.Plan, dp.Stats, error) { return dp.Optimize(q, dp.Options{Obs: ob, Ctx: canceled}) }, dp.ErrCanceled},
	} {
		_, st, err := r.run()
		if !errors.Is(err, r.wantErr) {
			t.Fatalf("%s: err = %v, want %v", r.name, err, r.wantErr)
		}
		if st.Memo.ClassesAlive == 0 {
			t.Fatalf("%s: no classes alive at the end of the run; the gauges would not show a leak", r.name)
		}
		peak = max(peak, st.Memo.PeakSimBytes)
		if alive, sim := ob.Gauge(obs.MMemoAlive).Value(), ob.Gauge(obs.MMemoSimBytes).Value(); alive != 0 || sim != 0 {
			t.Errorf("after %s: alive = %d, sim bytes = %d, want 0 and 0", r.name, alive, sim)
		}
	}
	if got := ob.Gauge(obs.MMemoPeakSimBytes).Value(); got != peak {
		t.Errorf("peak gauge = %d, want the largest run's peak %d", got, peak)
	}
}

// TestReleasedMemoAllocs is the fence for memo reuse: the bytes one warm run
// allocates — after a run of the same query released its memo — on the
// benchmark's cold-enum Star-12 under SDP and Chain-20 under DP. With every
// memo allocated afresh these measured 459.4 KiB and 256.7 KiB; reusing the
// released memo's arenas, class map and level lists they measure 35.6 KiB
// and 31.3 KiB (115 KiB and 77 KiB under -race). The limit is the reused
// measurement × 1.5. Under -race sync.Pool drops a quarter of its Puts, so
// there the limit is the unpooled measurement.
func TestReleasedMemoAllocs(t *testing.T) {
	const populationSeed = 20070415
	for _, c := range []struct {
		name             string
		spec             workload.Spec
		optimize         func(*query.Query) (*plan.Plan, dp.Stats, error)
		reused, unpooled float64 // KiB per run
	}{
		{"sdp-star-12", workload.Spec{Cat: workload.PaperSchema(), Topology: workload.Star, NumRelations: 12, Seed: populationSeed},
			func(q *query.Query) (*plan.Plan, dp.Stats, error) { return core.Optimize(q, core.DefaultOptions()) }, 35.6, 459.4},
		{"dp-chain-20", workload.Spec{Cat: workload.PaperSchema(), Topology: workload.Chain, NumRelations: 20, Seed: populationSeed + 4*101},
			func(q *query.Query) (*plan.Plan, dp.Stats, error) { return dp.Optimize(q, dp.Options{}) }, 31.3, 256.7},
	} {
		t.Run(c.name, func(t *testing.T) {
			q, err := workload.One(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			// One processor, so the run's Get finds the previous run's Put
			// in the same per-processor pool.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			run := func() {
				if _, _, err := c.optimize(q); err != nil {
					t.Fatal(err)
				}
			}
			run()
			const runs = 5
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				run()
			}
			runtime.ReadMemStats(&after)
			kib := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
			limit := c.reused * 1.5
			if testutil.Race {
				limit = c.unpooled
			}
			t.Logf("%.1f KiB per warm run, limit %.1f KiB", kib, limit)
			if kib > limit {
				t.Errorf("%.1f KiB allocated per warm run, want <= %.1f", kib, limit)
			}
		})
	}
}
