package dp

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"sdpopt/internal/memo"
	"sdpopt/internal/obs/span"
	"sdpopt/internal/query"
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

// TestTracingDeterminism: spans observe, they never order, so a run with a
// request span installed must stay bit-for-bit identical to the untraced
// run, with and without a level hook, and must attach one level span per
// level, the seed level included.
func TestTracingDeterminism(t *testing.T) {
	cat := workload.PaperSchema()
	nop := func(int, *memo.Memo, []*memo.Class) error { return nil }
	for _, spec := range []workload.Spec{
		{Cat: cat, Topology: workload.Star, NumRelations: 10, Seed: 42},
		{Cat: cat, Topology: workload.Chain, NumRelations: 15, Seed: 7},
		{Cat: cat, Topology: workload.Cycle, NumRelations: 8, Seed: 11},
	} {
		q, err := workload.One(spec)
		if err != nil {
			t.Fatalf("One: %v", err)
		}
		for _, hook := range []LevelHook{nil, nop} {
			label := fmt.Sprintf("%v hooked=%v", spec.Topology, hook != nil)
			pPlain, stPlain, err := Optimize(q, Options{Hook: hook})
			if err != nil {
				t.Fatalf("%s: untraced: %v", label, err)
			}
			rec := span.NewRecorder(span.RecorderOptions{SlowThreshold: time.Hour})
			root := span.New("request")
			rec.Start(root)
			pTraced, stTraced, err := Optimize(q, Options{Hook: hook, Ctx: span.NewContext(context.Background(), root)})
			if err != nil {
				t.Fatalf("%s: traced: %v", label, err)
			}
			sameRun(t, label, pPlain, stPlain, pTraced, stTraced)
			if stTraced.Memo.PeakSimBytes != stPlain.Memo.PeakSimBytes {
				t.Errorf("%s: PeakSimBytes %d traced, %d untraced", label, stTraced.Memo.PeakSimBytes, stPlain.Memo.PeakSimBytes)
			}

			rec.Finish(root, 200)
			d := rec.Snapshot()
			if got, want := countSpans(*d.Recent[0].Root, "level"), q.NumRelations(); got != want {
				t.Errorf("%s: %d level spans, want %d", label, got, want)
			}
		}
	}
}

// TestLevelSpansMatchAcrossEnumerators: each level span reports what the
// memo holds at that level's barrier — the classes created and the simulated
// memory once the level is done — so the indexed walk and the naive scan,
// which join the same pairs in the same order, report identical rows.
func TestLevelSpansMatchAcrossEnumerators(t *testing.T) {
	cat := workload.PaperSchema()
	type levelRow struct{ level, created, simBytes int64 }
	rows := func(q *query.Query, enum EnumMode) []levelRow {
		root, ctx := tracedRoot()
		if _, _, err := Optimize(q, Options{Enum: enum, Ctx: ctx}); err != nil {
			t.Fatalf("%v: %v", enum, err)
		}
		var out []levelRow
		for _, c := range levelSpans(root) {
			out = append(out, levelRow{c.Int("level"), c.Int("classes_created"), c.Int("sim_bytes")})
		}
		return out
	}
	for _, topo := range []workload.Topology{workload.Chain, workload.Star, workload.Cycle, workload.StarChain} {
		for _, ordered := range []bool{false, true} {
			q, err := workload.One(workload.Spec{Cat: cat, Topology: topo, NumRelations: 10, Ordered: ordered, Seed: 42})
			if err != nil {
				t.Fatalf("One: %v", err)
			}
			idx, naive := rows(q, EnumIndexed), rows(q, EnumNaive)
			if len(idx) != q.NumRelations() || !reflect.DeepEqual(idx, naive) {
				t.Errorf("%v ordered=%v: level spans (level, created, sim_bytes)\n indexed %v\n naive   %v", topo, ordered, idx, naive)
			}
		}
	}
}
