package main

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Small integer codes keep a sample compact: a warm-hit run holds a few
// hundred thousand of them.
const (
	techOther = iota
	techGreedy
	techIDP2
	techSDP
	techDP
)

const (
	srcUncached = iota
	srcHit
	srcMiss
	srcDedup
)

const (
	reasonOther = iota
	reasonDemoted
	reasonRegretPromoted
)

// sample is one answered (or failed) request.
type sample struct {
	// doneNS is the completion time as an offset from the start of the
	// phase; latNS the client-observed latency, from the scheduled arrival
	// in an open loop and from the send otherwise; rttNS always from the send.
	doneNS, latNS, rttNS int64
	serverNS             int64
	cost                 float64
	entry                int32
	status               int16
	tech, source, reason uint8
	ok                   bool
}

// refused reports a request the server declined instead of answering: shed
// at admission (429) or stopped at the deadline the request itself carried
// (504). A refusal misses the latency limit, so it lowers
// slo_attained_share, and is counted per layer as shed or timed out; it is
// not a failed operation, because the server did what the protocol says. On
// a shared host a stall of a tenth of a second is enough to push a request
// past a 100 ms deadline.
func (s sample) refused() bool {
	return s.status == http.StatusTooManyRequests || s.status == http.StatusGatewayTimeout
}

func techCode(s string) uint8 {
	switch s {
	case "greedy":
		return techGreedy
	case "idp2":
		return techIDP2
	case "sdp":
		return techSDP
	case "dp":
		return techDP
	}
	return techOther
}

func sourceCode(s string) uint8 {
	switch s {
	case "hit":
		return srcHit
	case "miss":
		return srcMiss
	case "dedup":
		return srcDedup
	}
	return srcUncached
}

func reasonCode(s string) uint8 {
	switch s {
	case "auto:deadline-demote", "auto:budget-demote":
		return reasonDemoted
	case "auto:regret-promote":
		return reasonRegretPromoted
	}
	return reasonOther
}

// phase is one stretch of load against a listening system.
type phase struct {
	sys     *system
	pool    *pool
	chk     *checker
	client  *http.Client
	clients int
	// offset is where in the pool's sequence this phase starts, so that the
	// measured phase continues where the warm-up stopped.
	offset int
	// markEvery > 0 snapshots the resource counters each time that many
	// requests have completed: the cycle boundaries of a measured phase.
	markEvery int
	// capacity is the sample buffer each client allocates before the first
	// request. A measured phase sizes it for the whole run, so the live
	// heap, and with it the collector's cadence, is the same from the first
	// request to the last instead of growing with the run.
	capacity int

	completed atomic.Int64
	markMu    sync.Mutex
}

// mark is the state at a cycle boundary.
type mark struct {
	doneNS int64
	u      usage
}

// phaseResult is what a phase observed.
type phaseResult struct {
	samples []sample
	marks   []mark
	wall    time.Duration
	// lagNS holds, per open-loop request, how late the generator handed it to
	// the dispatch queue.
	lagNS []int64
	// firstErr describes the first failed request, for the diagnostics.
	firstErr string
}

// one sends sequence element i and records the outcome. scheduled is the
// instant latency counts from; zero means the send.
func (ph *phase) one(i int, start, scheduled time.Time, buf *bytes.Buffer, errOnce *sync.Once, res *phaseResult) sample {
	ref := ph.pool.sequence[(ph.offset+i)%len(ph.pool.sequence)]
	body := ph.pool.entries[ref.entry].bodies[ref.spelling]
	var resp optimizeResponse
	sent := time.Now()
	status, err := post(ph.client, ph.sys.url, body, buf, &resp)
	done := time.Now()
	if err == nil {
		err = ph.chk.check(int(ref.entry), status, &resp)
	}
	if scheduled.IsZero() {
		scheduled = sent
	}
	s := sample{
		doneNS: done.Sub(start).Nanoseconds(), latNS: done.Sub(scheduled).Nanoseconds(), rttNS: done.Sub(sent).Nanoseconds(),
		serverNS: resp.ServerNS, cost: resp.Cost, entry: ref.entry, status: int16(status),
		tech: techCode(resp.Technique), source: sourceCode(resp.Source), reason: reasonCode(resp.RouteReason),
		ok: err == nil,
	}
	if err != nil {
		errOnce.Do(func() {
			res.firstErr = fmt.Sprintf("request %d (%s): %v", i, ph.pool.entries[ref.entry].label, err)
		})
	}
	if n := ph.completed.Add(1); ph.markEvery > 0 && n%int64(ph.markEvery) == 0 {
		mk := mark{doneNS: s.doneNS, u: readUsage()}
		ph.markMu.Lock()
		res.marks = append(res.marks, mk)
		ph.markMu.Unlock()
	}
	return s
}

// closed runs a closed loop: each client sends its next request when the
// previous one is answered. It stops after limit requests when limit > 0,
// else once d has passed.
func (ph *phase) closed(limit int, d time.Duration) *phaseResult {
	res := &phaseResult{}
	var next atomic.Int64
	var errOnce sync.Once
	per := make([][]sample, ph.clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < ph.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			out := make([]sample, 0, ph.capacity)
			for {
				i := int(next.Add(1)) - 1
				if limit > 0 && i >= limit || limit <= 0 && !time.Now().Before(deadline) {
					break
				}
				out = append(out, ph.one(i, start, time.Time{}, &buf, &errOnce, res))
			}
			per[c] = out
		}(c)
	}
	wg.Wait()
	res.wall = time.Since(start)
	for _, p := range per {
		res.samples = append(res.samples, p...)
	}
	return res
}

// open runs an open loop: request i is due at start+schedule[i] whether or
// not earlier ones have been answered. A dispatcher hands each request to
// the queue at its due time; the clients, one connection each, take requests
// from the queue, so time spent waiting for a free connection counts as
// latency while the dispatcher's own lateness is reported apart.
func (ph *phase) open(schedule []int64) *phaseResult {
	res := &phaseResult{lagNS: make([]int64, len(schedule))}
	var errOnce sync.Once
	// The queue holds the whole schedule so the dispatcher never blocks on
	// a slow server: that is what makes the loop open.
	queue := make(chan int, len(schedule))
	per := make([][]sample, ph.clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < ph.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			out := make([]sample, 0, ph.capacity)
			for i := range queue {
				due := start.Add(time.Duration(schedule[i]))
				out = append(out, ph.one(i, start, due, &buf, &errOnce, res))
			}
			per[c] = out
		}(c)
	}
	for i, off := range schedule {
		due := start.Add(time.Duration(off))
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		res.lagNS[i] = time.Since(due).Nanoseconds()
		queue <- i
	}
	close(queue)
	wg.Wait()
	res.wall = time.Since(start)
	for _, p := range per {
		res.samples = append(res.samples, p...)
	}
	return res
}
