package core

import (
	"context"
	"testing"

	"sdpopt/internal/obs"
	"sdpopt/internal/obs/span"
	"sdpopt/internal/query"
)

// spansNamed walks a span tree collecting every span with the given name.
func spansNamed(s *span.SpanJSON, name string) []*span.SpanJSON {
	var out []*span.SpanJSON
	if s.Name == name {
		out = append(out, s)
	}
	for i := range s.Children {
		out = append(out, spansNamed(&s.Children[i], name)...)
	}
	return out
}

// TestObservedPartitionEvents checks SDP's per-partition telemetry: the
// "sdp.partition" spans under each "sdp.level" span, and the skyline
// candidate/survivor counters.
func TestObservedPartitionEvents(t *testing.T) {
	ob := obs.New()
	root := span.New("run")
	q := fixture(t, 9, query.StarEdges(9), nil)
	opts := DefaultOptions()
	opts.Obs = ob
	opts.Ctx = span.NewContext(context.Background(), root)
	if _, _, err := Optimize(q, opts); err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	root.Finish()
	tr := root.Trace().Snapshot()

	levels := spansNamed(tr.Root, "sdp.level")
	if len(levels) == 0 {
		t.Fatal("no sdp.level spans")
	}
	parts := spansNamed(tr.Root, "sdp.partition")
	if len(parts) == 0 {
		t.Fatal("no sdp.partition spans on a 9-relation star")
	}
	for _, p := range parts {
		size, surv := p.Int("size"), p.Int("survivors")
		if size <= 0 || surv <= 0 || surv > size {
			t.Fatalf("partition span attrs out of range: %v", p.Attrs)
		}
		// Under Option2, each survivor is on at least one pairwise skyline,
		// so the per-criterion counts must bound the union count.
		if rc, cs, rs := p.Int("rc"), p.Int("cs"), p.Int("rs"); rc+cs+rs < surv {
			t.Fatalf("criterion counts %d+%d+%d cannot cover %d survivors", rc, cs, rs, surv)
		}
	}

	cand := ob.Counter(obs.MSkylineCandidates).Value()
	all := ob.Counter(obs.Label(obs.MSkylineSurvivors, "criterion", "all")).Value()
	if cand == 0 || all == 0 || all > cand {
		t.Errorf("skyline counters: candidates=%d survivors=%d", cand, all)
	}
	var spanCand, spanAll int64
	for _, p := range parts {
		spanCand += p.Int("size")
		spanAll += p.Int("survivors")
	}
	if spanCand != cand || spanAll != all {
		t.Errorf("partition spans sum to %d candidates / %d survivors, counters say %d / %d", spanCand, spanAll, cand, all)
	}
	rc := ob.Counter(obs.Label(obs.MSkylineSurvivors, "criterion", "RC")).Value()
	if rc == 0 || rc > cand {
		t.Errorf("RC survivor counter = %d (candidates %d)", rc, cand)
	}
}

// TestTraceViaEventsMatchesDirectTrace: the Trace is filled by the pruning
// hook itself, so with or without metrics and spans attached it must
// record the same pruning, and the "sdp.level" spans must count what it
// records.
func TestTraceViaEventsMatchesDirectTrace(t *testing.T) {
	q := fixture(t, 9, query.StarEdges(9), nil)

	optsA := DefaultOptions()
	optsA.Trace = &Trace{}
	if _, _, err := Optimize(q, optsA); err != nil {
		t.Fatalf("Optimize with Trace: %v", err)
	}

	root := span.New("run")
	optsB := DefaultOptions()
	optsB.Trace = &Trace{}
	optsB.Obs = obs.New()
	optsB.Ctx = span.NewContext(context.Background(), root)
	if _, _, err := Optimize(q, optsB); err != nil {
		t.Fatalf("Optimize with Trace+Obs+span: %v", err)
	}
	root.Finish()
	pruned := map[int64]int64{}
	for _, s := range spansNamed(root.Trace().Snapshot().Root, "sdp.level") {
		pruned[s.Int("level")] = s.Int("pruned")
	}

	a, b := optsA.Trace, optsB.Trace
	if len(a.Levels) == 0 || len(a.Levels) != len(b.Levels) {
		t.Fatalf("trace levels: %d vs %d (want equal, nonzero)", len(a.Levels), len(b.Levels))
	}
	for i := range a.Levels {
		la, lb := a.Levels[i], b.Levels[i]
		if la.Level != lb.Level || len(la.Pruned) != len(lb.Pruned) || len(la.Survivors) != len(lb.Survivors) {
			t.Errorf("level %d traces differ: %d/%d pruned, %d/%d survivors",
				la.Level, len(la.Pruned), len(lb.Pruned), len(la.Survivors), len(lb.Survivors))
		}
		if got := pruned[int64(lb.Level)]; got != int64(len(lb.Pruned)) {
			t.Errorf("level %d: sdp.level span pruned %d, trace pruned %d", lb.Level, got, len(lb.Pruned))
		}
	}
}
