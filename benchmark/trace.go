package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call. Spans of one replayed request share Trace, the request's index.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for the request's root span
	Name   string `json:"name"`   // <layer>.<operation>
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Counts carries the work counters read at the same boundary (plans
	// costed, pairs, classes, paths, heap objects allocated).
	Counts map[string]int64 `json:"counts,omitempty"`
}

// recorder keeps spans in memory until the replay ends. With on false every
// method is a no-op, which is the untraced pass.
type recorder struct {
	on    bool
	epoch time.Time
	trace int
	spans []span
	stack []int
}

func newRecorder(capacity int) *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span under the innermost open one and returns its id, or -1
// when the recorder is off.
func (r *recorder) begin(name string) int {
	if !r.on {
		return -1
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Trace: r.trace, ID: id, Parent: parent, Name: name, Start: time.Since(r.epoch).Nanoseconds()})
	r.stack = append(r.stack, id)
	return id
}

// end closes the span, which must be the innermost open one.
func (r *recorder) end(id int) {
	if id < 0 {
		return
	}
	r.spans[id].End = time.Since(r.epoch).Nanoseconds()
	r.stack = r.stack[:len(r.stack)-1]
}

// rename gives an open span the name that is only known once the call has
// returned, such as whether a cache access was a lookup or a fill.
func (r *recorder) rename(id int, name string) {
	if id >= 0 {
		r.spans[id].Name = name
	}
}

func (r *recorder) count(id int, key string, v int64) {
	if id < 0 {
		return
	}
	if r.spans[id].Counts == nil {
		r.spans[id].Counts = map[string]int64{}
	}
	r.spans[id].Counts[key] = v
}

// heapObjects returns the cumulative count of heap objects allocated, or 0
// when the recorder is off. Unlike runtime.ReadMemStats it does not stop the
// world, so it can sit at a span boundary.
func (r *recorder) heapObjects() int64 {
	if !r.on {
		return 0
	}
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return int64(s[0].Value.Uint64())
}

// selfTimes returns, per span id, the span's duration minus the part of it
// its children cover. Children may overlap each other; the covered part is
// the union of their intervals, clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	byID := make(map[int]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return byID[kids[a]].Start < byID[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			ks, ke := byID[k].Start, byID[k].End
			if ks < reach {
				ks = reach
			}
			if ke > s.End {
				ke = s.End
			}
			if ke > ks {
				covered += ke - ks
				reach = ke
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// writeTrace writes the spans as JSON lines to dir/trace-<name>.jsonl.
func writeTrace(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
