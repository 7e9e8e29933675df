package dp

import (
	"context"
	"errors"
	"strconv"
	"testing"

	"sdpopt/internal/memo"
	"sdpopt/internal/obs"
	"sdpopt/internal/obs/span"
)

func TestElapsedOnBudgetAbort(t *testing.T) {
	q := starQuery(t, 8)
	_, stats, err := Optimize(q, Options{Budget: 64 * 1024})
	if !errors.Is(err, memo.ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if stats.Elapsed <= 0 {
		t.Error("Elapsed not populated on budget abort")
	}
}

func TestElapsedOnSeedLevelAbort(t *testing.T) {
	// A budget smaller than one class aborts inside NewEngine's level-1
	// seeding; the stats must still carry wall time.
	q := chainQuery(t, 3)
	_, stats, err := Optimize(q, Options{Budget: 1})
	if !errors.Is(err, memo.ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if stats.Elapsed <= 0 {
		t.Error("Elapsed not populated on seed-level abort")
	}
}

// tracedRoot returns a fresh root span and a context carrying it.
func tracedRoot() (*span.Span, context.Context) {
	root := span.New("run")
	return root, span.NewContext(context.Background(), root)
}

// levelSpans returns the finished trace's "level" spans, in recorded order.
func levelSpans(root *span.Span) []span.SpanJSON {
	root.Finish()
	var out []span.SpanJSON
	for _, c := range root.Trace().Snapshot().Root.Children {
		if c.Name == "level" {
			out = append(out, c)
		}
	}
	return out
}

func TestObserveRunMetricsAndEvents(t *testing.T) {
	ob := obs.New()
	root, ctx := tracedRoot()
	q := chainQuery(t, 5)
	_, stats, err := Optimize(q, Options{Obs: ob, Ctx: ctx})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if got := ob.Counter(obs.MPlansCosted).Value(); got != stats.PlansCosted {
		t.Errorf("plans-costed counter = %d, stats say %d", got, stats.PlansCosted)
	}
	if got := ob.Counter(obs.MClassesCreated).Value(); got != stats.Memo.ClassesCreated {
		t.Errorf("classes-created counter = %d, stats say %d", got, stats.Memo.ClassesCreated)
	}
	if got := ob.Counter(obs.Label(obs.MOptimizations, "tech", "DP")).Value(); got != 1 {
		t.Errorf("optimizations{tech=DP} = %d, want 1", got)
	}
	if n := ob.Histogram(obs.Label(obs.MOptimizeSeconds, "tech", "DP"), obs.SecondsBuckets).Count(); n != 1 {
		t.Errorf("optimize-seconds{tech=DP} observations = %d, want 1", n)
	}
	if got := ob.Gauge(obs.MMemoPeakSimBytes).Value(); got != stats.Memo.PeakSimBytes {
		t.Errorf("peak gauge = %d, stats say %d", got, stats.Memo.PeakSimBytes)
	}
	// One labeled histogram per level, one observation each.
	for k := 1; k <= 5; k++ {
		name := obs.Label(obs.MLevelSeconds, "level", strconv.Itoa(k))
		if n := ob.Histogram(name, obs.SecondsBuckets).Count(); n != 1 {
			t.Errorf("histogram %s count = %d, want 1", name, n)
		}
	}
	// One level span per level, in level order, labeled with the technique.
	levels := levelSpans(root)
	if len(levels) != 5 {
		t.Fatalf("level spans = %d, want 5", len(levels))
	}
	for i, lv := range levels {
		if got := lv.Int("level"); got != int64(i+1) {
			t.Errorf("level span %d has level %d, want %d", i, got, i+1)
		}
		if tech := lv.Attrs["tech"]; tech != "DP" {
			t.Errorf("level span %d tech = %v, want DP", i, tech)
		}
	}
}

// TestBudgetAbortEvent checks a budget abort is counted once and lands on
// exactly one level span — the aborting level's — as its error.
func TestBudgetAbortEvent(t *testing.T) {
	ob := obs.New()
	root, ctx := tracedRoot()
	q := starQuery(t, 8)
	_, _, err := Optimize(q, Options{Budget: 64 * 1024, Obs: ob, Ctx: ctx})
	if !errors.Is(err, memo.ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if got := ob.Counter(obs.MBudgetAborts).Value(); got != 1 {
		t.Errorf("budget-aborts counter = %d, want 1", got)
	}
	var failed []span.SpanJSON
	for _, lv := range levelSpans(root) {
		if lv.Error != "" {
			failed = append(failed, lv)
		}
	}
	if len(failed) != 1 || failed[0].Error != err.Error() {
		t.Fatalf("level spans with an error = %+v, want one carrying %q", failed, err)
	}
}
