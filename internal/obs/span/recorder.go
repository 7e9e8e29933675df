package span

import (
	"encoding/json"
	"fmt"
	"html"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"sdpopt/internal/obs"
)

// RecorderOptions sizes the flight recorder.
type RecorderOptions struct {
	// Recent is the ring capacity for ordinary completed traces (default
	// 64).
	Recent int
	// Notable is the separate ring capacity for pinned traces — those
	// slower than SlowThreshold or ending in error / HTTP >= 400 (default
	// 64). A separate ring means a burst of fast traffic can never evict
	// the one slow request being debugged.
	Notable int
	// SlowThreshold pins traces at or above this duration (default 1s).
	SlowThreshold time.Duration
}

func (o RecorderOptions) withDefaults() RecorderOptions {
	if o.Recent <= 0 {
		o.Recent = 64
	}
	if o.Notable <= 0 {
		o.Notable = 64
	}
	if o.SlowThreshold <= 0 {
		o.SlowThreshold = time.Second
	}
	return o
}

// Recorder is the flight recorder: it tracks in-flight traces and retains
// two fixed-size rings of completed ones — the last Recent ordinary traces
// plus the last Notable slow/error traces, which are pinned in their own
// ring so ordinary traffic cannot push them out. Safe for concurrent use;
// nil-safe like the rest of the span API.
type Recorder struct {
	opts RecorderOptions

	mu          sync.Mutex
	active      map[*Trace]struct{}
	recent      []*Trace
	recentHead  int
	notable     []*Trace
	notableHead int

	started  int64
	finished int64
	slow     int64
	errored  int64
	pinned   int64
}

// NewRecorder returns a flight recorder with the given ring sizes.
func NewRecorder(o RecorderOptions) *Recorder {
	return &Recorder{
		opts:   o.withDefaults(),
		active: make(map[*Trace]struct{}),
	}
}

// SlowThreshold returns the pinning threshold.
func (r *Recorder) SlowThreshold() time.Duration {
	if r == nil {
		return 0
	}
	return r.opts.SlowThreshold
}

// Start registers a trace as in-flight so it shows up live at
// /debug/requests. No-op on a nil recorder or span.
func (r *Recorder) Start(root *Span) {
	if r == nil || root == nil {
		return
	}
	r.mu.Lock()
	r.active[root.tr] = struct{}{}
	r.started++
	r.mu.Unlock()
}

// Finish completes a trace with an HTTP-ish status code and files it into
// the recent or notable ring. The trace is finished here if the caller
// has not already done so.
func (r *Recorder) Finish(root *Span, code int) {
	if r == nil || root == nil {
		return
	}
	t := root.tr
	root.Finish()
	t.Finish(code)
	_, dur, _ := t.Status()
	isErr := code >= 400
	isSlow := dur >= r.opts.SlowThreshold

	r.mu.Lock()
	delete(r.active, t)
	r.finished++
	if isErr {
		r.errored++
	}
	if isSlow {
		r.slow++
	}
	if isErr || isSlow {
		r.notable, r.notableHead = ringPush(r.notable, r.notableHead, r.opts.Notable, t)
	} else {
		r.recent, r.recentHead = ringPush(r.recent, r.recentHead, r.opts.Recent, t)
	}
	r.mu.Unlock()
}

// Pin completes a trace and files it unconditionally into the notable
// ring, regardless of duration or status code — the hook for traces that
// are notable on a dimension the recorder cannot see itself, such as a
// shadow optimization that exposed high plan-quality regret. The trace
// need not have been Started; when it was, Pin removes it from the active
// set. No-op on a nil recorder or span.
func (r *Recorder) Pin(root *Span, code int) {
	if r == nil || root == nil {
		return
	}
	t := root.tr
	root.Finish()
	t.Finish(code)
	r.mu.Lock()
	delete(r.active, t)
	r.pinned++
	r.notable, r.notableHead = ringPush(r.notable, r.notableHead, r.opts.Notable, t)
	r.mu.Unlock()
}

// ringPush appends t to a fixed-capacity ring, overwriting the oldest
// entry once full.
func ringPush(ring []*Trace, head, capacity int, t *Trace) ([]*Trace, int) {
	if len(ring) < capacity {
		return append(ring, t), head
	}
	ring[head] = t
	return ring, (head + 1) % capacity
}

// ringNewest returns the ring's traces newest-first.
func ringNewest(ring []*Trace, head int) []*Trace {
	out := make([]*Trace, 0, len(ring))
	for i := 0; i < len(ring); i++ {
		// head is the oldest slot once the ring has wrapped; walking
		// backwards from head-1 yields newest-first either way.
		j := (head - 1 - i + 2*len(ring)) % len(ring)
		out = append(out, ring[j])
	}
	return out
}

// Snapshot serializes the recorder state — active traces first, then the
// notable and recent rings newest-first — into the /debug/flight.json
// document.
func (r *Recorder) Snapshot() *FlightDump {
	if r == nil {
		return &FlightDump{}
	}
	now := time.Now()
	r.mu.Lock()
	d := &FlightDump{
		Time: now,
		Config: FlightConfig{
			Recent:          r.opts.Recent,
			Notable:         r.opts.Notable,
			SlowThresholdNS: r.opts.SlowThreshold.Nanoseconds(),
		},
		Counts: FlightCounts{
			Started:  r.started,
			Finished: r.finished,
			Active:   int64(len(r.active)),
			Slow:     r.slow,
			Errored:  r.errored,
			Pinned:   r.pinned,
		},
	}
	active := make([]*Trace, 0, len(r.active))
	for t := range r.active {
		active = append(active, t)
	}
	notable := ringNewest(r.notable, r.notableHead)
	recent := ringNewest(r.recent, r.recentHead)
	r.mu.Unlock()

	// Serialization happens outside the recorder lock: each trace takes
	// its own span locks, so concurrent request traffic is never blocked
	// on a debug-page render.
	sort.Slice(active, func(i, j int) bool { return active[i].start.Before(active[j].start) })
	for _, t := range active {
		d.Active = append(d.Active, traceJSON(t, now, r.opts.SlowThreshold))
	}
	for _, t := range notable {
		d.Notable = append(d.Notable, traceJSON(t, now, r.opts.SlowThreshold))
	}
	for _, t := range recent {
		d.Recent = append(d.Recent, traceJSON(t, now, r.opts.SlowThreshold))
	}
	return d
}

// Snapshot returns the trace in its flight-dump form as of now, for a
// trace kept outside any Recorder (e.g. one CLI run). It is never marked
// slow: the slow threshold is a Recorder setting.
func (t *Trace) Snapshot() TraceJSON {
	return traceJSON(t, time.Now(), math.MaxInt64)
}

func traceJSON(t *Trace, now time.Time, slowAt time.Duration) TraceJSON {
	code, dur, done := t.Status()
	out := TraceJSON{
		TraceID: t.id,
		Remote:  t.remote,
		Start:   t.start,
		Code:    code,
		Active:  !done,
	}
	if !done {
		dur = now.Sub(t.start)
	}
	out.DurNS = dur.Nanoseconds()
	out.Slow = done && dur >= slowAt
	root := t.root.snapshot(t.start, now)
	out.Root = &root
	if root.Error != "" {
		out.Error = root.Error
	}
	return out
}

// FlightHandler serves the recorder state as JSON at /debug/flight.json.
func (r *Recorder) FlightHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(r.Snapshot())
	})
}

// RequestsHandler serves the human debug page at /debug/requests: live
// requests, pinned slow/error traces, and recent history, each rendered as
// an indented span tree (in the spirit of x/net/trace). When reg is
// non-nil the page also lists latency-histogram exemplars, linking extreme
// buckets back to the trace that landed in them.
func (r *Recorder) RequestsHandler(reg *obs.Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		d := r.Snapshot()
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		var b strings.Builder
		b.WriteString("<!DOCTYPE html><html><head><title>/debug/requests</title><style>\n")
		b.WriteString("body{font-family:sans-serif;margin:1em 2em}pre{background:#f6f8fa;padding:0.8em;overflow-x:auto}\n")
		b.WriteString("h2{border-bottom:1px solid #ccc;padding-bottom:0.2em}.slow{color:#b35c00}.err{color:#b00020}\n")
		b.WriteString("table{border-collapse:collapse}td,th{padding:0.15em 0.8em;text-align:left}\n")
		b.WriteString("</style></head><body>\n<h1>sdpopt flight recorder</h1>\n")
		fmt.Fprintf(&b, "<p>%d started, %d finished, %d active · %d slow (&ge; %v) · %d errored · %d pinned · rings: %d recent + %d notable</p>\n",
			d.Counts.Started, d.Counts.Finished, d.Counts.Active, d.Counts.Slow,
			time.Duration(d.Config.SlowThresholdNS), d.Counts.Errored, d.Counts.Pinned, d.Config.Recent, d.Config.Notable)
		b.WriteString("<p><a href=\"/debug/flight.json\">flight.json</a> · <a href=\"/metrics\">metrics</a></p>\n")

		if reg != nil {
			if exs := reg.Exemplars(); len(exs) > 0 {
				b.WriteString("<h2>Latency exemplars</h2>\n<table><tr><th>histogram</th><th>&le; bucket</th><th>value</th><th>trace</th></tr>\n")
				for _, ex := range exs {
					fmt.Fprintf(&b, "<tr><td>%s</td><td>%s</td><td>%g</td><td><code>%s</code></td></tr>\n",
						html.EscapeString(ex.Metric), html.EscapeString(ex.LE), ex.Value, html.EscapeString(ex.TraceID))
				}
				b.WriteString("</table>\n")
			}
		}

		section := func(title string, traces []TraceJSON) {
			fmt.Fprintf(&b, "<h2>%s (%d)</h2>\n", html.EscapeString(title), len(traces))
			if len(traces) == 0 {
				b.WriteString("<p>none</p>\n")
				return
			}
			for i := range traces {
				t := &traces[i]
				class := ""
				switch {
				case t.Code >= 400 || t.Error != "":
					class = " class=\"err\""
				case t.Slow:
					class = " class=\"slow\""
				}
				fmt.Fprintf(&b, "<h3%s><code>%s</code> · %v · code %d</h3>\n<pre>%s</pre>\n",
					class, html.EscapeString(t.TraceID), time.Duration(t.DurNS), t.Code,
					html.EscapeString(t.Render()))
			}
		}
		section("Active", d.Active)
		section("Slow / errored (pinned)", d.Notable)
		section("Recent", d.Recent)
		b.WriteString("</body></html>\n")
		w.Write([]byte(b.String()))
	})
}
