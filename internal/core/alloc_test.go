package core

import (
	"runtime"
	"testing"

	"sdpopt/internal/cost"
	"sdpopt/internal/dp"
	"sdpopt/internal/memo"
	"sdpopt/internal/workload"
)

// TestSDPHookAllocs is the allocation fence for SDP's level hook: the
// objects the hook allocates per pruning level, with no trace or telemetry
// attached, on the first instance of the benchmark's cold-enum Star-12 and
// Star-Chain-15 templates. The hook that kept survival in per-level
// map[bits.Set]bool, keyed partitions by fmt.Sprintf labels and scanned
// every relation's columns for the ORDER BY class measured 45.9 (Star-12)
// and 52.1 (Star-Chain-15) objects per level; one pass over partitions as
// index lists into reused buffers measured 15.8 and 15.5, the skyline's
// masks and projections being most of the rest. With the skyline reading
// the points in place into a skyline.Scratch the sdp struct holds, it
// measures 7.6 and 7.2, under -race too: what is left is the buffers growing
// on the first pruning levels, after which a level allocates nothing. Each
// limit is that measurement × 1.3.
func TestSDPHookAllocs(t *testing.T) {
	const populationSeed = 20070415
	for _, c := range []struct {
		name  string
		spec  workload.Spec
		limit float64
	}{
		{"star-12", workload.Spec{Cat: workload.PaperSchema(), Topology: workload.Star, NumRelations: 12, Seed: populationSeed}, 7.6 * 1.3},
		{"star-chain-15", workload.Spec{Cat: workload.PaperSchema(), Topology: workload.StarChain, NumRelations: 15, Seed: populationSeed + 2*101}, 7.2 * 1.3},
	} {
		t.Run(c.name, func(t *testing.T) {
			q, err := workload.One(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			s := newSDP(q, DefaultOptions(), nil)
			var mallocs uint64
			levels := 0
			var before, after runtime.MemStats
			hook := func(level int, m *memo.Memo, created []*memo.Class) error {
				runtime.ReadMemStats(&before)
				err := s.hook(level, m, created)
				runtime.ReadMemStats(&after)
				if level >= 2 && level < q.NumRelations()-2 {
					mallocs += after.Mallocs - before.Mallocs
					levels++
				}
				return err
			}
			e, err := dp.NewEngine(q, dp.BaseLeaves(q), dp.Options{Model: cost.NewModel(q, cost.DefaultParams()), Hook: hook})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Run(q.NumRelations()); err != nil {
				t.Fatal(err)
			}
			perLevel := float64(mallocs) / float64(levels)
			t.Logf("%d objects over %d pruning levels: %.1f per level", mallocs, levels, perLevel)
			if perLevel > c.limit {
				t.Errorf("%.1f objects per pruning level, want <= %.1f", perLevel, c.limit)
			}
		})
	}
}
