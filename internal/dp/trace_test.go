package dp

import (
	"context"
	"fmt"
	"testing"
	"time"

	"sdpopt/internal/obs/span"
	"sdpopt/internal/workload"
)

// countSpans walks a snapshot tree counting spans with the given name.
func countSpans(s span.SpanJSON, name string) int {
	n := 0
	if s.Name == name {
		n++
	}
	for _, c := range s.Children {
		n += countSpans(c, name)
	}
	return n
}

// TestTracingDeterminism re-runs the determinism property with a request
// span installed: spans observe, they never order, so parallel enumeration
// at 2/4/8 workers must stay bit-for-bit identical to the sequential run
// with tracing enabled. Run under -race in CI.
func TestTracingDeterminism(t *testing.T) {
	cat := workload.PaperSchema()
	for _, spec := range []workload.Spec{
		{Cat: cat, Topology: workload.Star, NumRelations: 10, Seed: 42},
		{Cat: cat, Topology: workload.Chain, NumRelations: 15, Seed: 7},
		{Cat: cat, Topology: workload.Cycle, NumRelations: 8, Seed: 11},
	} {
		q, err := workload.One(spec)
		if err != nil {
			t.Fatalf("One: %v", err)
		}
		// Sequential baseline, itself traced.
		seqRoot := span.New("request")
		pSeq, stSeq, err := Optimize(q, Options{Ctx: span.NewContext(context.Background(), seqRoot)})
		if err != nil {
			t.Fatalf("sequential: %v", err)
		}
		for _, workers := range []int{2, 4, 8} {
			rec := span.NewRecorder(span.RecorderOptions{SlowThreshold: time.Hour})
			root := span.New("request")
			rec.Start(root)
			pPar, stPar, err := Optimize(q, Options{
				Workers: workers,
				Ctx:     span.NewContext(context.Background(), root),
			})
			if err != nil {
				t.Fatalf("w=%d: parallel: %v", workers, err)
			}
			sameRun(t, fmt.Sprintf("%v w=%d traced", spec.Topology, workers), pSeq, stSeq, pPar, stPar)

			rec.Finish(root, 200)
			d := rec.Snapshot()
			tree := *d.Recent[0].Root
			levels := countSpans(tree, "level")
			if levels == 0 {
				t.Fatalf("w=%d: no level spans", workers)
			}
			// Every barrier round attaches one worker span per worker, in
			// fixed worker order. The seed level (level 1) is built inline
			// and has no worker round.
			wspans := countSpans(tree, "pardp.worker")
			if want := (levels - 1) * workers; wspans != want {
				t.Errorf("w=%d: %d pardp.worker spans across %d levels, want %d",
					workers, wspans, levels, want)
			}
		}
	}
}
