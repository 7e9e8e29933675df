// Package span provides request-scoped hierarchical tracing for the
// optimizer: one trace per optimize request, one span per stage (queue
// wait, cache lookup, canonicalization, enumeration level, SDP partition),
// carried through the engine via context.Context.
//
// Spans observe, they never order: engines record what happened and when,
// but no span operation synchronizes goroutines or influences which plan
// is produced.
//
// Like the rest of the obs layer, every method is a no-op on a nil
// receiver: FromContext returns nil when no span was installed, and the
// whole instrumented call graph then costs one nil check per site.
package span

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Trace is one request's span tree plus its completion metadata. The root
// span is created by New or FromTraceparent; children hang off it via
// Child/ChildAt. A Trace is safe for concurrent use.
type Trace struct {
	id     string // 32 lowercase hex digits (W3C trace-id)
	remote string // remote parent span-id when ingested via traceparent
	start  time.Time
	root   *Span
	nextID atomic.Uint64

	mu   sync.Mutex
	code int           // HTTP-ish status set at Finish (0 while active)
	dur  time.Duration // wall time from start to Finish
	done bool
}

// Span is one timed stage within a trace. Attributes carry dimensions
// (technique, level, partition label), counters carry magnitudes (plans
// costed, classes created). A Span is safe for concurrent use, and all
// methods are no-ops on a nil receiver.
type Span struct {
	tr    *Trace
	id    uint64
	name  string
	start time.Time

	mu       sync.Mutex
	dur      time.Duration
	done     bool
	errMsg   string
	attrs    map[string]any
	counters map[string]int64
	children []*Span
}

// New starts a trace with a fresh random trace ID and returns its root
// span, named name.
func New(name string) *Span {
	return newTrace(randTraceID(), "", name)
}

// FromTraceparent starts a trace whose ID is taken from a W3C traceparent
// header (version 00: "00-<32 hex trace-id>-<16 hex parent-id>-<2 hex
// flags>"), so the caller can correlate our flight-recorder entry with its
// own trace. A missing or malformed header falls back to a fresh trace.
func FromTraceparent(header, name string) *Span {
	traceID, parentID, ok := parseTraceparent(header)
	if !ok {
		return New(name)
	}
	return newTrace(traceID, parentID, name)
}

func newTrace(traceID, remote, name string) *Span {
	t := &Trace{id: traceID, remote: remote, start: time.Now()}
	root := &Span{tr: t, id: t.nextID.Add(1), name: name, start: t.start}
	t.root = root
	return root
}

// randTraceID returns 16 random bytes as 32 lowercase hex digits.
func randTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; a
		// deterministic fallback keeps tracing functional regardless.
		copy(b[:], []byte("sdpoptfallbackid"))
	}
	return hex.EncodeToString(b[:])
}

// parseTraceparent validates a version-00 traceparent header and returns
// its trace-id and parent-id fields.
func parseTraceparent(s string) (traceID, parentID string, ok bool) {
	// 2 (version) + 1 + 32 (trace-id) + 1 + 16 (parent-id) + 1 + 2 (flags)
	if len(s) != 55 || s[0] != '0' || s[1] != '0' || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return "", "", false
	}
	traceID, parentID = s[3:35], s[36:52]
	if !isHex(traceID) || !isHex(parentID) || !isHex(s[53:55]) {
		return "", "", false
	}
	if allZero(traceID) || allZero(parentID) {
		return "", "", false
	}
	return traceID, parentID, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}

// ID returns the 32-hex-digit W3C trace ID ("" on nil).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Remote returns the ingested remote parent span ID, or "" when the trace
// was not started from a traceparent header.
func (t *Trace) Remote() string {
	if t == nil {
		return ""
	}
	return t.remote
}

// Start returns the trace start time (zero on nil).
func (t *Trace) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// Root returns the root span (nil on nil).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Traceparent renders the header to echo back to the caller: our trace ID
// with the root span as parent-id, sampled flag set.
func (t *Trace) Traceparent() string {
	if t == nil {
		return ""
	}
	return fmt.Sprintf("00-%s-%016x-01", t.id, t.root.id)
}

// Finish marks the trace complete with an HTTP-ish status code. The first
// call wins; the duration is wall time since the trace started.
func (t *Trace) Finish(code int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if !t.done {
		t.done = true
		t.code = code
		t.dur = time.Since(t.start)
	}
	t.mu.Unlock()
}

// Status returns the completion code and duration recorded by Finish, and
// whether Finish has run.
func (t *Trace) Status() (code int, dur time.Duration, done bool) {
	if t == nil {
		return 0, 0, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.code, t.dur, t.done
}

type ctxKey struct{}

// NewContext returns ctx carrying s. Installing a nil span returns ctx
// unchanged, so the disabled path stays allocation-free.
func NewContext(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the span carried by ctx, or nil when tracing is off.
// A nil ctx is allowed and yields nil.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// Trace returns the span's owning trace (nil on nil).
func (s *Span) Trace() *Trace {
	if s == nil {
		return nil
	}
	return s.tr
}

// TraceID returns the owning trace's ID ("" on nil), the handle that links
// histogram exemplars and flight-recorder entries back to this request.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.tr.id
}

// Name returns the span name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Child starts a running child span; call Finish on it when the stage
// completes. Returns nil on a nil receiver.
func (s *Span) Child(name string) *Span {
	return s.childAt(name, time.Now(), 0, false)
}

// ChildAt records an already-completed child span after the fact — the
// shape engine barriers need: measure with two time.Time reads in the hot
// path, attach the span only once per level. Returns nil on nil.
func (s *Span) ChildAt(name string, start time.Time, d time.Duration) *Span {
	return s.childAt(name, start, d, true)
}

func (s *Span) childAt(name string, start time.Time, d time.Duration, done bool) *Span {
	if s == nil {
		return nil
	}
	c := &Span{tr: s.tr, id: s.tr.nextID.Add(1), name: name, start: start, dur: d, done: done}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// SetAttr records a dimension on the span (last write per key wins).
func (s *Span) SetAttr(key string, v any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]any, 4)
	}
	s.attrs[key] = v
	s.mu.Unlock()
}

// Add increments a per-span counter by delta.
func (s *Span) Add(counter string, delta int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.counters == nil {
		s.counters = make(map[string]int64, 4)
	}
	s.counters[counter] += delta
	s.mu.Unlock()
}

// SetError records an error message on the span without finishing it.
func (s *Span) SetError(msg string) {
	if s == nil || msg == "" {
		return
	}
	s.mu.Lock()
	s.errMsg = msg
	s.mu.Unlock()
}

// Finish closes the span; the first call fixes the duration.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.done {
		s.done = true
		s.dur = time.Since(s.start)
	}
	s.mu.Unlock()
}

// FinishErr closes the span, recording err's message when non-nil.
func (s *Span) FinishErr(err error) {
	if s == nil {
		return
	}
	if err != nil {
		s.SetError(err.Error())
	}
	s.Finish()
}

// snapshot converts the span subtree to its JSON form under the span
// locks. Running spans report elapsed time so far and Running=true.
func (s *Span) snapshot(traceStart, now time.Time) SpanJSON {
	s.mu.Lock()
	out := SpanJSON{
		Name:    s.name,
		ID:      fmt.Sprintf("%016x", s.id),
		StartNS: s.start.Sub(traceStart).Nanoseconds(),
		DurNS:   s.dur.Nanoseconds(),
		Running: !s.done,
		Error:   s.errMsg,
	}
	if !s.done {
		out.DurNS = now.Sub(s.start).Nanoseconds()
	}
	if len(s.attrs) > 0 {
		out.Attrs = make(map[string]any, len(s.attrs))
		for k, v := range s.attrs {
			out.Attrs[k] = v
		}
	}
	if len(s.counters) > 0 {
		out.Counters = make(map[string]int64, len(s.counters))
		for k, v := range s.counters {
			out.Counters[k] = v
		}
	}
	children := make([]*Span, len(s.children))
	copy(children, s.children)
	s.mu.Unlock()
	for _, c := range children {
		out.Children = append(out.Children, c.snapshot(traceStart, now))
	}
	return out
}
