// Package lane is the off-path work lane behind the serving layer's
// background samplers: the regret shadow (re-optimize a served query
// against a reference) and the feedback exec sampler (execute a served plan
// and record actuals). Sampled work may never degrade serving, so a Gate
// picks the serves, and a Lane deduplicates them, queues them without
// blocking (dropping what does not fit), and runs them on a fixed worker
// pool where a panicking job counts as a failure instead of killing the
// process.
package lane

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Gate is a deterministic fixed-point rate gate: each call accumulates the
// rate in 1/2^20 units and fires when the integer part advances. At rate 1
// every call fires; at rate 0 none do. Race-safe without math/rand state.
// The zero Gate never fires.
type Gate struct {
	acc    atomic.Int64
	rateFP int64
}

// SetRate sets the firing rate, in [0, 1]. Call it before the first Sample.
func (g *Gate) SetRate(rate float64) {
	g.rateFP = int64(rate * (1 << 20))
}

// Sample reports whether this call passes the gate.
func (g *Gate) Sample() bool {
	if g.rateFP <= 0 {
		return false
	}
	nv := g.acc.Add(g.rateFP)
	return nv>>20 != (nv-g.rateFP)>>20
}

// Options sizes a lane.
type Options struct {
	// Workers is the worker pool size; at least 1.
	Workers int
	// QueueSize bounds jobs waiting for a worker; overflow is dropped.
	QueueSize int
	// DedupFor suppresses a second job for one fingerprint × catalog
	// version within this interval. Negative disables deduplication.
	DedupFor time.Duration
}

// Outcome is what Offer did with a job: queued it for a worker, or
// discarded it as a repeat within DedupFor, for a full queue, or because the
// lane is closed.
type Outcome int

const (
	Enqueued Outcome = iota
	Deduped
	Dropped
	Closed
)

// Counts are a lane's lifetime counters. Completed counts every job a worker
// took off the queue, Failures those of them that returned an error or
// panicked, so after Drain Completed == Enqueued.
type Counts struct {
	Deduped   int64 `json:"deduped"`
	Dropped   int64 `json:"dropped"`
	Enqueued  int64 `json:"enqueued"`
	Completed int64 `json:"completed"`
	Failures  int64 `json:"failures"`
}

// dedupKey is the deduplication key: the same query shape against another
// catalog version is another measurement.
type dedupKey struct{ fingerprint, version string }

// dedupCap bounds the dedup map. At capacity expired entries are swept
// first; if none expired the map resets wholesale — re-running a few jobs
// early is cheaper than unbounded growth.
const dedupCap = 4096

// jobYield is how long a worker de-schedules before starting each job. A
// job is offered while its serving request is still flushing its response;
// on a host with a single core the runtime would otherwise hand the CPU to
// the worker for the whole job (shadow runs are shorter than the ~10ms
// async-preemption threshold), stalling that flush and any other in-flight
// serve. Sleeping first parks the worker so the scheduler drains runnable
// serving goroutines and the netpoller; the delay is invisible to the jobs'
// purpose (their results are windowed aggregates) and caps a worker at a
// throughput far above any sane sampling rate.
const jobYield = time.Millisecond

// Lane is a bounded, deduplicating job queue drained by a fixed worker pool.
// Construct with New; Close stops the workers.
type Lane[J any] struct {
	opts Options
	run  func(J) error
	fail func(J, error)

	jobs      chan J
	wg        sync.WaitGroup
	closeOnce sync.Once

	mu      sync.Mutex // guards closed + jobs send + dedup
	closed  bool
	closing atomic.Bool // read by workers to skip queued jobs on Close
	dedup   map[dedupKey]time.Time

	deduped   atomic.Int64
	dropped   atomic.Int64
	enqueued  atomic.Int64
	completed atomic.Int64
	failures  atomic.Int64
}

// New starts a lane whose workers call run on each job. When run returns an
// error or panics, the job counts as a failure and fail (if non-nil) is
// called with it on the same worker — the place for the job kind's own
// error metrics.
func New[J any](opts Options, run func(J) error, fail func(J, error)) *Lane[J] {
	l := &Lane[J]{
		opts:  opts,
		run:   run,
		fail:  fail,
		jobs:  make(chan J, opts.QueueSize),
		dedup: map[dedupKey]time.Time{},
	}
	for i := 0; i < opts.Workers; i++ {
		l.wg.Add(1)
		go l.worker()
	}
	return l
}

// Offer enqueues j without blocking, unless the same fingerprint × catalog
// version was offered within DedupFor, the queue is full, or the lane is
// closed.
func (l *Lane[J]) Offer(fingerprint, version string, j J) Outcome {
	key := dedupKey{fingerprint, version}
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return Closed
	}
	if last, ok := l.dedup[key]; ok && now.Sub(last) < l.opts.DedupFor {
		l.deduped.Add(1)
		return Deduped
	}
	if len(l.dedup) >= dedupCap {
		for k, at := range l.dedup {
			if now.Sub(at) >= l.opts.DedupFor {
				delete(l.dedup, k)
			}
		}
		if len(l.dedup) >= dedupCap {
			l.dedup = map[dedupKey]time.Time{}
		}
	}
	l.dedup[key] = now
	select {
	case l.jobs <- j:
		l.enqueued.Add(1)
		return Enqueued
	default:
		// Queue full: forget the dedup mark so the next serve of this query
		// gets another chance once load subsides.
		delete(l.dedup, key)
		l.dropped.Add(1)
		return Dropped
	}
}

// Len is the number of jobs queued but not yet started.
func (l *Lane[J]) Len() int { return len(l.jobs) }

// Counts snapshots the lifetime counters.
func (l *Lane[J]) Counts() Counts {
	return Counts{
		Deduped:   l.deduped.Load(),
		Dropped:   l.dropped.Load(),
		Enqueued:  l.enqueued.Load(),
		Completed: l.completed.Load(),
		Failures:  l.failures.Load(),
	}
}

func (l *Lane[J]) worker() {
	defer l.wg.Done()
	for j := range l.jobs {
		// Once Close is underway, queued jobs are discarded (but still
		// counted, so Drain's enqueued == completed invariant holds) rather
		// than delaying shutdown by a whole job each.
		if !l.closing.Load() {
			time.Sleep(jobYield)
			if err := l.call(j); err != nil {
				l.failures.Add(1)
				if l.fail != nil {
					l.fail(j, err)
				}
			}
		}
		l.completed.Add(1)
	}
}

// call runs one job, reporting a panic as its error: a bug in one job kind
// must cost one measurement, not the serving process.
func (l *Lane[J]) call(j J) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("off-path job panicked: %v", p)
		}
	}()
	return l.run(j)
}

// Drain blocks until every enqueued job has completed or ctx expires — the
// determinism hook for benchmarks and smoke tests. Serving code never calls
// it.
func (l *Lane[J]) Drain(ctx context.Context) error {
	for {
		if l.completed.Load() >= l.enqueued.Load() {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// Close stops accepting jobs, discards queued ones, and waits for the
// in-flight ones to finish. Idempotent.
func (l *Lane[J]) Close() {
	l.closeOnce.Do(func() {
		l.closing.Store(true)
		l.mu.Lock()
		l.closed = true
		l.mu.Unlock()
		close(l.jobs)
		l.wg.Wait()
	})
}
