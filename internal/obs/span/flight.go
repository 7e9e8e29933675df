package span

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// FlightDump is the /debug/flight.json document: one recorder snapshot
// with active traces plus the notable and recent rings, newest first.
type FlightDump struct {
	Time    time.Time    `json:"time"`
	Config  FlightConfig `json:"config"`
	Counts  FlightCounts `json:"counts"`
	Active  []TraceJSON  `json:"active,omitempty"`
	Notable []TraceJSON  `json:"notable,omitempty"`
	Recent  []TraceJSON  `json:"recent,omitempty"`
}

// FlightConfig echoes the recorder sizing so a dump is self-describing.
type FlightConfig struct {
	Recent          int   `json:"recent"`
	Notable         int   `json:"notable"`
	SlowThresholdNS int64 `json:"slow_threshold_ns"`
}

// FlightCounts are the recorder's lifetime counters. Pinned counts traces
// filed into the notable ring by an explicit Pin call (e.g. worst-regret
// shadow traces), separate from the slow/errored self-pinning.
type FlightCounts struct {
	Started  int64 `json:"started"`
	Finished int64 `json:"finished"`
	Active   int64 `json:"active"`
	Slow     int64 `json:"slow"`
	Errored  int64 `json:"errored"`
	Pinned   int64 `json:"pinned,omitempty"`
}

// TraceJSON is one trace in a flight dump.
type TraceJSON struct {
	TraceID string    `json:"trace_id"`
	Remote  string    `json:"remote_parent,omitempty"`
	Start   time.Time `json:"start"`
	DurNS   int64     `json:"dur_ns"`
	Code    int       `json:"code"`
	Error   string    `json:"error,omitempty"`
	Slow    bool      `json:"slow,omitempty"`
	Active  bool      `json:"active,omitempty"`
	Root    *SpanJSON `json:"root"`
}

// SpanJSON is one span in a flight dump. StartNS is the offset from the
// trace start, so a tree renders without absolute timestamps per span.
type SpanJSON struct {
	Name     string           `json:"name"`
	ID       string           `json:"id"`
	StartNS  int64            `json:"start_ns"`
	DurNS    int64            `json:"dur_ns"`
	Running  bool             `json:"running,omitempty"`
	Error    string           `json:"error,omitempty"`
	Attrs    map[string]any   `json:"attrs,omitempty"`
	Counters map[string]int64 `json:"counters,omitempty"`
	Children []SpanJSON       `json:"children,omitempty"`
}

// ReadDump decodes a /debug/flight.json document.
func ReadDump(r io.Reader) (*FlightDump, error) {
	var d FlightDump
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("span: decoding flight dump: %w", err)
	}
	return &d, nil
}

// Traces returns every trace in the dump — active, then notable, then
// recent — as one slice.
func (d *FlightDump) Traces() []TraceJSON {
	out := make([]TraceJSON, 0, len(d.Active)+len(d.Notable)+len(d.Recent))
	out = append(out, d.Active...)
	out = append(out, d.Notable...)
	out = append(out, d.Recent...)
	return out
}

// Render formats the trace as an indented span tree with durations,
// attributes, and counters — the text form shown at /debug/requests and by
// `sdplab inspect`.
func (t *TraceJSON) Render() string {
	var b strings.Builder
	state := "done"
	switch {
	case t.Active:
		state = "active"
	case t.Error != "":
		state = "error"
	case t.Slow:
		state = "slow"
	}
	fmt.Fprintf(&b, "trace %s  %v  code=%d  %s", t.TraceID, time.Duration(t.DurNS).Round(time.Microsecond), t.Code, state)
	if t.Remote != "" {
		fmt.Fprintf(&b, "  remote-parent=%s", t.Remote)
	}
	b.WriteByte('\n')
	if t.Root != nil {
		renderSpan(&b, *t.Root, 1)
	}
	return b.String()
}

func renderSpan(b *strings.Builder, s SpanJSON, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	fmt.Fprintf(b, "%-4s %s  %v", "+"+time.Duration(s.StartNS).Round(time.Microsecond).String(), s.Name,
		time.Duration(s.DurNS).Round(time.Microsecond))
	if s.Running {
		b.WriteString(" (running)")
	}
	for _, k := range sortedKeys(s.Attrs) {
		fmt.Fprintf(b, "  %s=%s", k, attrString(s.Attrs[k]))
	}
	for _, k := range sortedInt64Keys(s.Counters) {
		fmt.Fprintf(b, "  %s=%d", k, s.Counters[k])
	}
	if s.Error != "" {
		fmt.Fprintf(b, "  err=%q", s.Error)
	}
	b.WriteByte('\n')
	// Children render in recorded order: engines attach level and worker
	// spans in canonical order, so the tree reads chronologically.
	for _, c := range s.Children {
		renderSpan(b, c, depth+1)
	}
}

func attrString(v any) string {
	if f, ok := v.(float64); ok && f == float64(int64(f)) {
		return fmt.Sprintf("%d", int64(f))
	}
	return fmt.Sprintf("%v", v)
}

func sortedKeys(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedInt64Keys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
