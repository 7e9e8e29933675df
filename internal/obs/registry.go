package obs

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is a concurrency-safe metrics registry. Metric handles are
// resolved once by name (Counter / Gauge / Histogram) and then updated with
// atomic operations, so concurrent engine runs share one registry without
// locking on the hot path. All methods are nil-safe: a nil *Registry hands
// out nil handles, whose update methods are a single nil-check — the
// near-zero disabled path.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	gaugeFuncs map[string]func() int64
	histograms map[string]*Histogram
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		gaugeFuncs: map[string]func() int64{},
		histograms: map[string]*Histogram{},
	}
}

// Counter is a monotonically increasing metric.
type Counter struct {
	name string
	v    atomic.Int64
}

// Add increments the counter by d. No-op on a nil counter.
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. Set/Add store int64 values
// (bytes, object counts); SetMax retains the maximum, for peak tracking.
type Gauge struct {
	name string
	v    atomic.Int64
}

// Set stores v. No-op on a nil gauge.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by d and returns the new value (0 on a nil gauge).
func (g *Gauge) Add(d int64) int64 {
	if g == nil {
		return 0
	}
	return g.v.Add(d)
}

// SetMax raises the gauge to v if v is larger — a monotone high-water mark.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current gauge value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// SecondsBuckets are the upper bounds of duration histograms, in seconds:
// exponential from 1 µs to ~68 s (factor 4), covering everything from a
// single enumeration level to a full paper-scale batch. Call sites observe
// time.Duration.Seconds().
var SecondsBuckets = func() []float64 {
	var b []float64
	for d := time.Microsecond; d < 2*time.Minute; d *= 4 {
		b = append(b, d.Seconds())
	}
	return b
}()

// RatioBuckets are the upper bounds of ratio histograms — cost ratios ρ of
// a served plan against a reference, q-errors. The paper's quality
// thresholds (1.01 Ideal, 2 Good, 10 Acceptable) are exact bounds so the
// exposition's cumulative buckets reproduce the Ideal/Good/Acceptable/Bad
// split directly; the remaining bounds resolve the interesting 1–10 region.
var RatioBuckets = []float64{1, 1.01, 1.1, 1.25, 1.5, 2, 3, 5, 10, 30, 100}

// Histogram is a fixed-bucket histogram over float64 values with atomic
// counters. Its bucket bounds (SecondsBuckets, RatioBuckets) are set at
// creation; the last bucket slot is the +Inf overflow. Each bucket
// additionally retains the most recent exemplar — the trace ID of the last
// request that landed in it — so an extreme bucket links straight to a
// flight-recorder entry. All methods are nil-safe.
type Histogram struct {
	name      string
	bounds    []float64 // ascending upper bounds
	buckets   []atomic.Int64
	exemplars []atomic.Pointer[Exemplar]
	count     atomic.Int64
	sumBits   atomic.Uint64 // math.Float64bits of the running sum
}

// Exemplar ties one histogram observation to the request trace that
// produced it.
type Exemplar struct {
	TraceID string
	Value   float64
	Time    time.Time
}

// Observe records one value. No-op on a nil histogram.
func (h *Histogram) Observe(v float64) { h.ObserveExemplar(v, "") }

// ObserveExemplar records one value and, when traceID is non-empty,
// replaces the landed bucket's exemplar with it. An empty traceID makes
// this identical to Observe, so call sites need no tracing-enabled branch.
// NaN lands in the first bucket; callers filter it before observing.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	if traceID != "" {
		h.exemplars[i].Store(&Exemplar{TraceID: traceID, Value: v, Time: time.Now()})
	}
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of all observed values (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// upperBound returns bucket i's upper bound, +Inf for the overflow slot.
func (h *Histogram) upperBound(i int) float64 {
	if i < len(h.bounds) {
		return h.bounds[i]
	}
	return math.Inf(1)
}

// Counter resolves (creating on first use) the named counter. Nil-safe.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Gauge resolves (creating on first use) the named gauge. Nil-safe.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	return g
}

// Histogram resolves (creating on first use) the named histogram. bounds
// sets the ascending bucket upper bounds at creation — SecondsBuckets or
// RatioBuckets — and is neither copied nor modified; a later call for the
// same name returns the existing histogram and ignores bounds. Nil-safe.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		h = &Histogram{
			name:      name,
			bounds:    bounds,
			buckets:   make([]atomic.Int64, len(bounds)+1),
			exemplars: make([]atomic.Pointer[Exemplar], len(bounds)+1),
		}
		r.histograms[name] = h
	}
	return h
}

// GaugeFunc registers a gauge whose value is computed at exposition time by
// fn — for values owned elsewhere (process uptime, a queue's current depth)
// that would otherwise need a polling goroutine. fn must be safe for
// concurrent use and fast: it runs on every scrape. Re-registering a name
// replaces its function. Nil-safe.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFuncs[name] = fn
}

// Label formats a metric name with label pairs in Prometheus exposition
// syntax, e.g. Label("sdpopt_technique_seconds", "tech", "SDP") →
// `sdpopt_technique_seconds{tech="SDP"}`. The labeled string is itself the
// registry key, so labeled series are independent metrics. Values are
// quoted with strconv.AppendQuote, byte for byte the fmt %q form, into a
// stack buffer: the key string is the one allocation of a request-path call.
func Label(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	var buf [128]byte
	b := append(buf[:0], name...)
	b = append(b, '{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, kv[i]...)
		b = append(b, '=')
		b = strconv.AppendQuote(b, kv[i+1])
	}
	b = append(b, '}')
	return string(b)
}

// splitLabeled separates a registry key into its base name and the label
// block (with braces), if any.
func splitLabeled(key string) (base, labels string) {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i], key[i:]
	}
	return key, ""
}

// ExemplarInfo is one histogram bucket's exemplar with enough context to
// render it standalone: metric name plus the bucket's le bound.
type ExemplarInfo struct {
	Metric  string
	LE      string
	TraceID string
	Value   float64
	Time    time.Time
}

// sortedHistograms returns the registry's histograms sorted by name.
func (r *Registry) sortedHistograms() []*Histogram {
	r.mu.Lock()
	hists := make([]*Histogram, 0, len(r.histograms))
	for _, h := range r.histograms {
		hists = append(hists, h)
	}
	r.mu.Unlock()
	slices.SortFunc(hists, func(a, b *Histogram) int { return strings.Compare(a.name, b.name) })
	return hists
}

// Exemplars returns every histogram bucket exemplar in the registry, sorted
// by metric name then bucket bound: the data behind the /debug/requests
// "latency exemplars" table. Nil-safe.
func (r *Registry) Exemplars() []ExemplarInfo {
	if r == nil {
		return nil
	}
	var out []ExemplarInfo
	for _, h := range r.sortedHistograms() {
		for i := range h.exemplars {
			if ex := h.exemplars[i].Load(); ex != nil {
				out = append(out, ExemplarInfo{Metric: h.name, LE: formatLE(h.upperBound(i)), TraceID: ex.TraceID, Value: ex.Value, Time: ex.Time})
			}
		}
	}
	return out
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): counters and gauges as single samples, histograms
// as cumulative _bucket/_sum/_count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.writeText(w, false)
}

// WriteOpenMetrics renders the registry like WritePrometheus but in
// OpenMetrics form: bucket samples carry their exemplar suffix
// (`# {trace_id="..."} <value> <unix>`) and the stream is terminated
// with `# EOF`. Scrapers that accept application/openmetrics-text get this
// variant and can link extreme buckets to flight-recorder traces.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	if err := r.writeText(w, true); err != nil {
		return err
	}
	if r == nil {
		return nil
	}
	_, err := fmt.Fprintln(w, "# EOF")
	return err
}

func (r *Registry) writeText(w io.Writer, exemplars bool) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	counters := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		counters = append(counters, c)
	}
	gauges := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		gauges = append(gauges, g)
	}
	funcs := make([]struct {
		name string
		fn   func() int64
	}, 0, len(r.gaugeFuncs))
	for name, fn := range r.gaugeFuncs {
		funcs = append(funcs, struct {
			name string
			fn   func() int64
		}{name, fn})
	}
	r.mu.Unlock()
	hists := r.sortedHistograms()

	// Gauge functions are evaluated outside the registry lock — they may
	// take their owners' locks — and merged with the stored gauges into one
	// name-sorted gauge section.
	type sample struct {
		name string
		v    int64
	}
	gsamples := make([]sample, 0, len(gauges)+len(funcs))
	for _, g := range gauges {
		gsamples = append(gsamples, sample{g.name, g.Value()})
	}
	for _, f := range funcs {
		gsamples = append(gsamples, sample{f.name, f.fn()})
	}

	slices.SortFunc(counters, func(a, b *Counter) int { return strings.Compare(a.name, b.name) })
	slices.SortFunc(gsamples, func(a, b sample) int { return strings.Compare(a.name, b.name) })

	typed := map[string]bool{}
	header := func(key, kind string) {
		base, _ := splitLabeled(key)
		if !typed[base] {
			typed[base] = true
			fmt.Fprintf(w, "# TYPE %s %s\n", base, kind)
		}
	}
	for _, c := range counters {
		header(c.name, "counter")
		if _, err := fmt.Fprintf(w, "%s %d\n", c.name, c.Value()); err != nil {
			return err
		}
	}
	for _, g := range gsamples {
		header(g.name, "gauge")
		if _, err := fmt.Fprintf(w, "%s %d\n", g.name, g.v); err != nil {
			return err
		}
	}
	for _, h := range hists {
		header(h.name, "histogram")
		base, labels := splitLabeled(h.name)
		cum := int64(0)
		for i := range h.buckets {
			cum += h.buckets[i].Load()
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d%s\n", base, mergeLE(labels, h.upperBound(i)), cum, h.exemplarSuffix(i, exemplars)); err != nil {
				return err
			}
		}
		fmt.Fprintf(w, "%s_sum%s %g\n", base, labels, h.Sum())
		fmt.Fprintf(w, "%s_count%s %d\n", base, labels, h.Count())
	}
	return nil
}

// exemplarSuffix renders bucket i's OpenMetrics exemplar annotation, or ""
// when exemplars are disabled or the bucket has none.
func (h *Histogram) exemplarSuffix(i int, enabled bool) string {
	if !enabled {
		return ""
	}
	ex := h.exemplars[i].Load()
	if ex == nil {
		return ""
	}
	return fmt.Sprintf(" # {trace_id=%q} %g %.3f", ex.TraceID, ex.Value, float64(ex.Time.UnixMilli())/1000)
}

// mergeLE inserts the le="..." bucket label into an existing label block
// ("" or "{k=\"v\"}").
func mergeLE(labels string, ub float64) string {
	le := fmt.Sprintf("le=%q", formatLE(ub))
	if labels == "" {
		return "{" + le + "}"
	}
	return labels[:len(labels)-1] + "," + le + "}"
}

func formatLE(ub float64) string {
	if math.IsInf(ub, 1) {
		return "+Inf"
	}
	return fmt.Sprintf("%g", ub)
}
