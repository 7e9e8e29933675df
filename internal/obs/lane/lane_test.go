package lane

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

func drain[J any](t *testing.T, l *Lane[J]) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := l.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// The dedup key is fingerprint × catalog version: one query shape against a
// new catalog version is a new measurement, against the same one a repeat.
func TestDedupKeyIsFingerprintTimesVersion(t *testing.T) {
	var ran atomic.Int64
	l := New(Options{Workers: 1, QueueSize: 8, DedupFor: time.Hour},
		func(int) error { ran.Add(1); return nil }, nil)
	defer l.Close()

	for _, o := range []struct {
		version string
		want    Outcome
	}{
		{"v1", Enqueued},
		{"v2", Enqueued},
		{"v1", Deduped},
		{"v2", Deduped},
	} {
		if got := l.Offer("fp", o.version, 0); got != o.want {
			t.Errorf("Offer(fp, %s) = %v, want %v", o.version, got, o.want)
		}
	}
	drain(t, l)
	c := l.Counts()
	if c.Enqueued != 2 || c.Deduped != 2 || c.Completed != 2 || ran.Load() != 2 {
		t.Fatalf("counts %+v, ran %d; want 2 enqueued, 2 deduped, 2 run", c, ran.Load())
	}
}

// A panicking job costs one failure, reaches the fail hook as an error, and
// leaves the worker serving the next job.
func TestPanickingJobIsContained(t *testing.T) {
	var failed []error
	var ran atomic.Int64
	l := New(Options{Workers: 1, QueueSize: 8, DedupFor: -1},
		func(j int) error {
			if j == 0 {
				panic("boom")
			}
			ran.Add(1)
			return nil
		},
		func(_ int, err error) { failed = append(failed, err) })
	defer l.Close()

	l.Offer("a", "v", 0)
	l.Offer("b", "v", 1)
	drain(t, l)
	if c := l.Counts(); c.Failures != 1 || c.Completed != 2 {
		t.Fatalf("counts %+v, want 1 failure of 2 completed", c)
	}
	if ran.Load() != 1 {
		t.Fatalf("job after the panic ran %d times, want 1", ran.Load())
	}
	if len(failed) != 1 || failed[0] == nil {
		t.Fatalf("fail hook saw %v, want one panic error", failed)
	}
}

// Close discards what is still queued — counted as completed, so Drain
// returns — and later offers report Closed.
func TestCloseDiscardsQueued(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	l := New(Options{Workers: 1, QueueSize: 4, DedupFor: -1},
		func(int) error { started <- struct{}{}; <-release; return nil }, nil)

	l.Offer("a", "v", 0)
	<-started
	l.Offer("b", "v", 1)
	go func() {
		for !l.closing.Load() {
			time.Sleep(time.Millisecond)
		}
		close(release)
	}()
	l.Close()
	l.Close() // idempotent
	drain(t, l)
	if got := l.Offer("c", "v", 2); got != Closed {
		t.Fatalf("Offer after Close = %v, want Closed", got)
	}
	if c := l.Counts(); c.Enqueued != 2 || c.Completed != 2 {
		t.Fatalf("counts %+v, want 2 enqueued and completed", c)
	}
}
