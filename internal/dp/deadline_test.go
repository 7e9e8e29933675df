package dp_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"sdpopt/internal/core"
	"sdpopt/internal/dp"
	"sdpopt/internal/workload"
)

// lateTimerCtx is a context whose deadline has passed but whose Done channel
// never closes: what an engine sees when the runtime timer that would cancel
// its context has not run yet.
type lateTimerCtx struct{ context.Context }

func (lateTimerCtx) Deadline() (time.Time, bool) { return time.Now().Add(-time.Millisecond), true }

// TestCtxErrReadsTheClock runs real DP and SDP under a context that never
// reports itself done and requires both to stop on the passed deadline
// alone: dp.CtxErr reads the clock, not only the context.
func TestCtxErrReadsTheClock(t *testing.T) {
	q, err := workload.One(workload.Spec{Cat: workload.PaperSchema(), Topology: workload.Star, NumRelations: 10, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	ctx := lateTimerCtx{context.Background()}
	sdp := core.DefaultOptions()
	sdp.Ctx = ctx
	for _, run := range []struct {
		name string
		opt  func() error
	}{
		{"DP", func() error { _, _, err := dp.Optimize(q, dp.Options{Ctx: ctx}); return err }},
		{"SDP", func() error { _, _, err := core.Optimize(q, sdp); return err }},
	} {
		err := run.opt()
		if !errors.Is(err, dp.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: err = %v, want ErrCanceled wrapping DeadlineExceeded", run.name, err)
		}
	}
}
