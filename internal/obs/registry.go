package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
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
	floatHists map[string]*FloatHistogram
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		gaugeFuncs: map[string]func() int64{},
		histograms: map[string]*Histogram{},
		floatHists: map[string]*FloatHistogram{},
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

// histBuckets are the duration histogram upper bounds: exponential from 1 µs
// to ~68 s (factor 4), covering everything from a single enumeration level
// to a full paper-scale batch.
var histBuckets = func() []time.Duration {
	var b []time.Duration
	for d := time.Microsecond; d < 2*time.Minute; d *= 4 {
		b = append(b, d)
	}
	return b
}()

// Histogram is a fixed-bucket duration histogram with atomic counters. The
// last bucket slot is the +Inf overflow. Each bucket additionally retains
// the most recent exemplar — the trace ID of the last request that landed
// in it — so an extreme bucket in a latency histogram links straight to a
// flight-recorder entry.
type Histogram struct {
	name      string
	buckets   [16]atomic.Int64
	exemplars [16]atomic.Pointer[Exemplar]
	count     atomic.Int64
	sumNS     atomic.Int64
}

// Exemplar ties one histogram observation to the request trace that
// produced it.
type Exemplar struct {
	TraceID string
	Value   time.Duration
	Time    time.Time
}

func init() {
	if len(histBuckets) >= 16 {
		panic("obs: histogram bucket array too small")
	}
}

// bucketIndex returns the bucket slot for d (len(histBuckets) = overflow).
func bucketIndex(d time.Duration) int {
	i := 0
	for i < len(histBuckets) && d > histBuckets[i] {
		i++
	}
	return i
}

// Observe records one duration. No-op on a nil histogram.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	i := bucketIndex(d)
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNS.Add(int64(d))
}

// ObserveExemplar records one duration and, when traceID is non-empty,
// replaces the landed bucket's exemplar with it. An empty traceID makes
// this identical to Observe, so call sites need no tracing-enabled branch.
func (h *Histogram) ObserveExemplar(d time.Duration, traceID string) {
	if h == nil {
		return
	}
	i := bucketIndex(d)
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNS.Add(int64(d))
	if traceID != "" {
		h.exemplars[i].Store(&Exemplar{TraceID: traceID, Value: d, Time: time.Now()})
	}
}

// Exemplars returns the histogram's current per-bucket exemplars in bucket
// order (empty buckets skipped). Nil-safe.
func (h *Histogram) Exemplars() []Exemplar {
	if h == nil {
		return nil
	}
	var out []Exemplar
	for i := range h.exemplars {
		if ex := h.exemplars[i].Load(); ex != nil {
			out = append(out, *ex)
		}
	}
	return out
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total observed duration (0 for nil).
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sumNS.Load())
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

// Histogram resolves (creating on first use) the named duration histogram.
// Nil-safe.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		h = &Histogram{name: name}
		r.histograms[name] = h
	}
	return h
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
// render it standalone (metric name plus the bucket's le bound). Value is
// pre-formatted — a duration string for latency histograms, a plain number
// for float (ratio) histograms.
type ExemplarInfo struct {
	Metric  string
	LE      string
	TraceID string
	Value   string
	Time    time.Time
}

// Exemplars returns every histogram bucket exemplar in the registry —
// duration and float histograms alike — sorted by metric name then bucket
// bound: the data behind the /debug/requests "latency exemplars" table.
// Nil-safe.
func (r *Registry) Exemplars() []ExemplarInfo {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	hists := make([]*Histogram, 0, len(r.histograms))
	for _, h := range r.histograms {
		hists = append(hists, h)
	}
	fhists := make([]*FloatHistogram, 0, len(r.floatHists))
	for _, h := range r.floatHists {
		fhists = append(fhists, h)
	}
	r.mu.Unlock()
	var out []ExemplarInfo
	for _, h := range hists {
		for i := range h.exemplars {
			ex := h.exemplars[i].Load()
			if ex == nil {
				continue
			}
			ub := math.Inf(1)
			if i < len(histBuckets) {
				ub = histBuckets[i].Seconds()
			}
			out = append(out, ExemplarInfo{
				Metric:  h.name,
				LE:      formatLE(ub),
				TraceID: ex.TraceID,
				Value:   ex.Value.String(),
				Time:    ex.Time,
			})
		}
	}
	for _, h := range fhists {
		for i := range h.exemplars {
			ex := h.exemplars[i].Load()
			if ex == nil {
				continue
			}
			ub := math.Inf(1)
			if i < len(h.bounds) {
				ub = h.bounds[i]
			}
			out = append(out, ExemplarInfo{
				Metric:  h.name,
				LE:      formatLE(ub),
				TraceID: ex.TraceID,
				Value:   fmt.Sprintf("%g", ex.Value),
				Time:    ex.Time,
			})
		}
	}
	// Entries were appended in bucket order per metric; a stable sort on
	// the metric name alone preserves that within each histogram.
	sort.SliceStable(out, func(i, j int) bool { return out[i].Metric < out[j].Metric })
	return out
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): counters and gauges as single samples, histograms
// as cumulative _bucket/_sum/_count series with seconds-valued buckets.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.writeText(w, false)
}

// WriteOpenMetrics renders the registry like WritePrometheus but in
// OpenMetrics form: bucket samples carry their exemplar suffix
// (`# {trace_id="..."} <seconds> <unix>`) and the stream is terminated
// with `# EOF`. Scrapers that accept application/openmetrics-text get this
// variant and can link extreme latency buckets to flight-recorder traces.
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
	hists := make([]*Histogram, 0, len(r.histograms))
	for _, h := range r.histograms {
		hists = append(hists, h)
	}
	fhists := make([]*FloatHistogram, 0, len(r.floatHists))
	for _, h := range r.floatHists {
		fhists = append(fhists, h)
	}
	r.mu.Unlock()

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

	sort.Slice(counters, func(i, j int) bool { return counters[i].name < counters[j].name })
	sort.Slice(gsamples, func(i, j int) bool { return gsamples[i].name < gsamples[j].name })
	sort.Slice(hists, func(i, j int) bool { return hists[i].name < hists[j].name })
	sort.Slice(fhists, func(i, j int) bool { return fhists[i].name < fhists[j].name })

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
		bucket := func(i int, ub float64, cum int64) error {
			_, err := fmt.Fprintf(w, "%s%s %d%s\n", base+"_bucket", mergeLE(labels, ub), cum, h.exemplarSuffix(i, exemplars))
			return err
		}
		cum := int64(0)
		for i, ub := range histBuckets {
			cum += h.buckets[i].Load()
			if err := bucket(i, ub.Seconds(), cum); err != nil {
				return err
			}
		}
		cum += h.buckets[len(histBuckets)].Load()
		if err := bucket(len(histBuckets), math.Inf(1), cum); err != nil {
			return err
		}
		fmt.Fprintf(w, "%s%s %g\n", base+"_sum", labels, h.Sum().Seconds())
		fmt.Fprintf(w, "%s%s %d\n", base+"_count", labels, h.Count())
	}
	for _, h := range fhists {
		header(h.name, "histogram")
		base, labels := splitLabeled(h.name)
		cum := int64(0)
		for i, ub := range h.bounds {
			cum += h.buckets[i].Load()
			if _, err := fmt.Fprintf(w, "%s%s %d%s\n", base+"_bucket", mergeLE(labels, ub), cum, h.exemplarSuffix(i, exemplars)); err != nil {
				return err
			}
		}
		cum += h.buckets[len(h.bounds)].Load()
		if _, err := fmt.Fprintf(w, "%s%s %d%s\n", base+"_bucket", mergeLE(labels, math.Inf(1)), cum, h.exemplarSuffix(len(h.bounds), exemplars)); err != nil {
			return err
		}
		fmt.Fprintf(w, "%s%s %g\n", base+"_sum", labels, h.Sum())
		fmt.Fprintf(w, "%s%s %d\n", base+"_count", labels, h.Count())
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
	return formatExemplarSuffix(ex.TraceID, ex.Value.Seconds(), ex.Time)
}

// formatExemplarSuffix renders one OpenMetrics exemplar annotation shared
// by the duration and float histogram expositions.
func formatExemplarSuffix(traceID string, value float64, at time.Time) string {
	return fmt.Sprintf(" # {trace_id=%q} %g %.3f", traceID, value, float64(at.UnixMilli())/1000)
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
