package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// Event is one structured trace record. Attrs carry the JSON-serializable
// measurements (counts, durations in ns, names); Payload optionally carries
// an arbitrary in-process value for local consumers (e.g. core.Trace reads
// full pruning decisions from it) and is never serialized.
type Event struct {
	Time    time.Time
	Type    string
	Attrs   map[string]any
	Payload any
}

// Event types emitted by the engine layers. The JSONL schema is documented
// in the README's Observability section.
const (
	EvOptimizeStart = "optimize.start" // tech, rels
	EvOptimizeEnd   = "optimize.end"   // tech, rels, dur_ns, plans_costed, classes_created, peak_sim_bytes, enum, cost, err
	EvLevel         = "level"          // tech, level, dur_ns, classes_created, plans_costed, classes_alive, sim_bytes
	EvBudgetAbort   = "budget.abort"   // tech, level, sim_bytes, budget
	EvSDPLevel      = "sdp.level"      // tech, level, prune_group, free_group, survivors, pruned
	EvSDPPartition  = "sdp.partition"  // tech, level, label, size, survivors, rc, cs, rs
	EvIDPIteration  = "idp.iteration"  // tech, iter, leaves, block, dur_ns
	EvIDPCommit     = "idp.commit"     // tech, iter, set, set_size, candidates, shortlisted
	EvBatchStart    = "batch.start"    // graph, instances, techniques, workers
	EvBatchEnd      = "batch.end"      // graph, dur_ns
	EvInstance      = "instance"       // graph, tech, instance, dur_ns, plans_costed, feasible
	EvRegret        = "regret"         // tech, ref, shape, rels, ratio, served_cost, ref_cost, trace_id, dur_ns
	EvFeedback      = "feedback"       // object, kind, est, actual, qerr, tech, rels, trace_id
)

// MarshalJSON flattens the event to one JSON object: {"t": ..., "ev": ...,
// <attrs...>}. Attr keys are emitted in sorted order for stable output.
func (e Event) MarshalJSON() ([]byte, error) {
	var buf []byte
	buf = append(buf, `{"t":`...)
	ts, err := e.Time.MarshalJSON()
	if err != nil {
		return nil, err
	}
	buf = append(buf, ts...)
	buf = append(buf, `,"ev":`...)
	tb, _ := json.Marshal(e.Type)
	buf = append(buf, tb...)
	keys := make([]string, 0, len(e.Attrs))
	for k := range e.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		kb, _ := json.Marshal(k)
		vb, err := json.Marshal(e.Attrs[k])
		if err != nil {
			return nil, fmt.Errorf("obs: attr %q: %w", k, err)
		}
		buf = append(buf, ',')
		buf = append(buf, kb...)
		buf = append(buf, ':')
		buf = append(buf, vb...)
	}
	buf = append(buf, '}')
	return buf, nil
}

// Sink consumes trace events. Emit must be safe for concurrent use.
type Sink interface {
	Emit(Event)
	Close() error
}

// Flusher is implemented by sinks that buffer writes and can force them out
// without closing (JSONLSink). Tracer.Flush calls it on graceful shutdown
// so no event of an in-flight request is stranded in a buffer.
type Flusher interface {
	Flush() error
}

// Tracer fans events out to its sinks. A nil tracer drops everything; the
// enabled check is a nil comparison.
type Tracer struct {
	sinks []Sink
}

// NewTracer returns a tracer over the given sinks (nil if none).
func NewTracer(sinks ...Sink) *Tracer {
	if len(sinks) == 0 {
		return nil
	}
	return &Tracer{sinks: sinks}
}

// Emit timestamps and delivers one event. No-op on a nil tracer.
func (t *Tracer) Emit(typ string, attrs map[string]any) {
	t.EmitPayload(typ, attrs, nil)
}

// EmitPayload is Emit with an in-process payload attached.
func (t *Tracer) EmitPayload(typ string, attrs map[string]any, payload any) {
	if t == nil {
		return
	}
	e := Event{Time: time.Now(), Type: typ, Attrs: attrs, Payload: payload}
	for _, s := range t.sinks {
		s.Emit(e)
	}
}

// Flush forces buffered writes out of every sink implementing Flusher,
// returning the first error. The sinks stay usable afterwards.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	var first error
	for _, s := range t.sinks {
		if f, ok := s.(Flusher); ok {
			if err := f.Flush(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// Close closes every sink, returning the first error.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	var first error
	for _, s := range t.sinks {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// MemSink buffers events in memory — the sink used by tests and by the CLIs'
// in-process trace tables.
type MemSink struct {
	mu     sync.Mutex
	events []Event
}

// Emit appends the event.
func (s *MemSink) Emit(e Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

// Close is a no-op.
func (s *MemSink) Close() error { return nil }

// Events returns a snapshot of the captured events.
func (s *MemSink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.events...)
}

// ByType returns the captured events of one type, in order.
func (s *MemSink) ByType(typ string) []Event {
	var out []Event
	for _, e := range s.Events() {
		if e.Type == typ {
			out = append(out, e)
		}
	}
	return out
}

// JSONLSink writes events as JSON Lines through a buffered writer.
type JSONLSink struct {
	mu  sync.Mutex
	w   *bufio.Writer
	c   io.Closer
	err error
}

// NewJSONLSink wraps an open writer. If w is also an io.Closer it is closed
// by Close.
func NewJSONLSink(w io.Writer) *JSONLSink {
	s := &JSONLSink{w: bufio.NewWriterSize(w, 1<<16)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// OpenJSONL creates (truncating) a JSONL trace file at path.
func OpenJSONL(path string) (*JSONLSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: trace file: %w", err)
	}
	return NewJSONLSink(f), nil
}

// Emit serializes one event as a JSON line. Marshal errors are reported on
// Close rather than dropped silently.
func (s *JSONLSink) Emit(e Event) {
	b, err := json.Marshal(e)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		if s.err == nil {
			s.err = err
		}
		return
	}
	s.w.Write(b)
	s.w.WriteByte('\n')
}

// Flush forces buffered lines to the underlying writer without closing it;
// the sink remains usable. Earlier marshal errors surface here as well as
// on Close.
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.w.Flush()
	if s.err != nil && err == nil {
		err = s.err
	}
	return err
}

// Close flushes the buffer and closes the underlying file, if any.
func (s *JSONLSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.w.Flush()
	if s.c != nil {
		if cerr := s.c.Close(); err == nil {
			err = cerr
		}
	}
	if s.err != nil && err == nil {
		err = s.err
	}
	return err
}
