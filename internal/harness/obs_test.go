package harness

import (
	"testing"

	"sdpopt/internal/obs"
	"sdpopt/internal/workload"
)

// TestRunBatchWorkersRace drives the worker pool with parallelism and a
// live observer so `go test -race` exercises the concurrent paths: the
// jobs channel, the shared result matrix, and the registry's atomic
// counters/gauges fed from every worker at once.
func TestRunBatchWorkersRace(t *testing.T) {
	ob := obs.New()
	obs.SetDefault(ob)
	defer obs.SetDefault(nil)

	cat := workload.PaperSchema()
	qs, err := workload.Instances(workload.Spec{Cat: cat, Topology: workload.StarChain, NumRelations: 8, Seed: 7}, 6)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	techs := []Technique{TechDP(0), TechIDP(4, 0), TechSDP(0)}
	b, err := RunBatchWorkers("race", qs, techs, "DP", 4)
	if err != nil {
		t.Fatalf("RunBatchWorkers: %v", err)
	}
	if len(b.Outcomes) != 3 {
		t.Fatalf("outcomes = %d, want 3", len(b.Outcomes))
	}
	for _, o := range b.Outcomes {
		if !o.Feasible || len(o.Ratios) != len(qs) {
			t.Errorf("%s: feasible=%v ratios=%d", o.Name, o.Feasible, len(o.Ratios))
		}
	}

	// All 3×6 instances must be observed (the per-technique histograms
	// below), and the queue must drain.
	if d := ob.Gauge(obs.MQueueDepth).Value(); d != 0 {
		t.Errorf("queue depth after batch = %d, want 0", d)
	}
	if got := ob.Counter(obs.MBatches).Value(); got != 1 {
		t.Errorf("batches counter = %d, want 1", got)
	}
	for _, tech := range []string{"DP", "IDP(4)", "SDP"} {
		h := ob.Histogram(obs.Label(obs.MTechniqueSeconds, "tech", tech), obs.SecondsBuckets)
		if h.Count() != 6 {
			t.Errorf("%s technique histogram count = %d, want 6", tech, h.Count())
		}
	}
}
