package obs

import (
	"bytes"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

func TestFloatHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.FloatHistogram("sdpopt_test_ratio", nil) // RatioBuckets
	// Exact threshold values land at-or-below their bound (le semantics).
	for _, v := range []float64{1, 1.01, 2, 10, 1000} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
	if got := h.Sum(); got != 1014.01 {
		t.Fatalf("Sum = %g, want 1014.01", got)
	}
	// Cumulative counts at the paper's quality thresholds.
	counts := map[float64]int64{}
	cum := int64(0)
	for i, ub := range h.bounds {
		cum += h.buckets[i].Load()
		counts[ub] = cum
	}
	if counts[1.01] != 2 || counts[2] != 3 || counts[10] != 4 || counts[100] != 4 {
		t.Fatalf("cumulative counts = %v", counts)
	}
	if got := cum + h.buckets[len(h.bounds)].Load(); got != 5 {
		t.Fatalf("total incl. overflow = %d, want 5", got)
	}
}

func TestFloatHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.FloatHistogram(Label("sdpopt_test_ratio", "tech", "greedy"), []float64{1, 2})
	h.ObserveExemplar(1.5, "cafe")
	h.Observe(3)

	var om bytes.Buffer
	if err := r.WriteOpenMetrics(&om); err != nil {
		t.Fatal(err)
	}
	out := om.String()
	for _, want := range []string{
		"# TYPE sdpopt_test_ratio histogram",
		`sdpopt_test_ratio_bucket{tech="greedy",le="2"} 1 # {trace_id="cafe"} 1.5`,
		`sdpopt_test_ratio_bucket{tech="greedy",le="+Inf"} 2`,
		`sdpopt_test_ratio_sum{tech="greedy"} 4.5`,
		`sdpopt_test_ratio_count{tech="greedy"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// Classic exposition never carries the exemplar.
	var classic bytes.Buffer
	if err := r.WritePrometheus(&classic); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(classic.String(), "cafe") {
		t.Error("classic exposition leaked a float exemplar")
	}

	// Registry-wide exemplar view includes the float histogram.
	found := false
	for _, info := range r.Exemplars() {
		if info.TraceID == "cafe" && info.Value == "1.5" && info.LE == "2" {
			found = true
		}
	}
	if !found {
		t.Errorf("Registry.Exemplars() missing float exemplar: %+v", r.Exemplars())
	}

	// Nil safety.
	var nilH *FloatHistogram
	nilH.ObserveExemplar(1, "x")
	if nilH.Count() != 0 || nilH.Sum() != 0 || nilH.Exemplars() != nil {
		t.Error("nil FloatHistogram not inert")
	}
	var nilR *Registry
	if nilR.FloatHistogram("x", nil) != nil {
		t.Error("nil registry handed out a float histogram")
	}
}

func TestFloatHistogramQuantile(t *testing.T) {
	r := NewRegistry()

	// Empty histogram: every quantile is 0, never NaN.
	h := r.FloatHistogram("sdpopt_test_q_empty", nil)
	for _, q := range []float64{0, 0.5, 0.95, 1} {
		if got := h.Quantile(q); got != 0 || got != got {
			t.Fatalf("empty Quantile(%g) = %v, want 0", q, got)
		}
	}

	// Single observation: all quantiles land inside its bucket.
	h1 := r.FloatHistogram("sdpopt_test_q_one", nil)
	h1.Observe(1.3) // bucket (1.25, 1.5]
	for _, q := range []float64{0, 0.5, 1} {
		got := h1.Quantile(q)
		if got != got {
			t.Fatalf("single-obs Quantile(%g) is NaN", q)
		}
		if got < 1.25 || got > 1.5 {
			t.Fatalf("single-obs Quantile(%g) = %g, want within (1.25, 1.5]", q, got)
		}
	}

	// All-equal observations: every quantile agrees.
	hEq := r.FloatHistogram("sdpopt_test_q_eq", nil)
	for i := 0; i < 10; i++ {
		hEq.Observe(2.5) // bucket (2, 3]
	}
	if p50, p95 := hEq.Quantile(0.5), hEq.Quantile(0.95); p50 < 2 || p50 > 3 || p95 < 2 || p95 > 3 {
		t.Fatalf("all-equal quantiles p50=%g p95=%g, want within (2, 3]", p50, p95)
	}

	// Spread observations: quantiles are monotone and overflow is bounded.
	hs := r.FloatHistogram("sdpopt_test_q_spread", nil)
	for _, v := range []float64{1, 1.2, 1.4, 2.5, 4, 8, 500} {
		hs.Observe(v)
	}
	p50, p95 := hs.Quantile(0.5), hs.Quantile(0.95)
	if p50 > p95 {
		t.Fatalf("quantiles not monotone: p50=%g > p95=%g", p50, p95)
	}
	if top := hs.Quantile(1); top != 100 {
		t.Fatalf("overflow quantile = %g, want top bound 100", top)
	}

	// Nil safety and clamping.
	var nilH *FloatHistogram
	if nilH.Quantile(0.5) != 0 {
		t.Error("nil Quantile not 0")
	}
	if lo, hi := h1.Quantile(-1), h1.Quantile(2); lo != lo || hi != hi {
		t.Error("out-of-range q produced NaN")
	}
}

func TestSummarizeWindow(t *testing.T) {
	// Empty window: zeros, not NaN.
	if p50, p95, max := SummarizeWindow(nil); p50 != 0 || p95 != 0 || max != 0 {
		t.Fatalf("empty window = %g/%g/%g, want zeros", p50, p95, max)
	}
	// Single observation: all three equal it.
	if p50, p95, max := SummarizeWindow([]float64{3.5}); p50 != 3.5 || p95 != 3.5 || max != 3.5 {
		t.Fatalf("single window = %g/%g/%g, want 3.5 each", p50, p95, max)
	}
	// All-equal observations.
	if p50, p95, max := SummarizeWindow([]float64{2, 2, 2, 2}); p50 != 2 || p95 != 2 || max != 2 {
		t.Fatalf("all-equal window = %g/%g/%g, want 2 each", p50, p95, max)
	}
	// NaN and Inf inputs are dropped, not propagated.
	vals := []float64{1, math.NaN(), 4, math.Inf(1), 2}
	p50, p95, max := SummarizeWindow(vals)
	if p50 != p50 || p95 != p95 || max != max {
		t.Fatalf("NaN leaked through: %g/%g/%g", p50, p95, max)
	}
	if p50 != 2 || max != 4 {
		t.Fatalf("window with NaN/Inf = %g/%g/%g, want p50=2 max=4", p50, p95, max)
	}
	// All-garbage window degrades to zeros.
	if p50, _, max := SummarizeWindow([]float64{math.NaN(), math.Inf(-1)}); p50 != 0 || max != 0 {
		t.Fatalf("garbage window = %g/%g, want zeros", p50, max)
	}
}

func TestGaugeFuncAndBuildInfo(t *testing.T) {
	r := NewRegistry()
	v := int64(7)
	r.GaugeFunc("sdpopt_test_dynamic", func() int64 { return v })
	RegisterBuildInfo(r)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "sdpopt_test_dynamic 7") {
		t.Errorf("gauge func missing:\n%s", out)
	}
	wantInfo := `sdpopt_build_info{version=` // full label set checked below
	if !strings.Contains(out, wantInfo) {
		t.Errorf("build info missing:\n%s", out)
	}
	if !strings.Contains(out, `goversion="`+runtime.Version()+`"`) {
		t.Errorf("goversion label missing:\n%s", out)
	}
	if !strings.Contains(out, `gomaxprocs="`+strconv.Itoa(runtime.GOMAXPROCS(0))+`"`) {
		t.Errorf("gomaxprocs label missing:\n%s", out)
	}
	if !strings.Contains(out, MProcessStart) || !strings.Contains(out, MUptime) {
		t.Errorf("process gauges missing:\n%s", out)
	}

	// The function is re-evaluated per scrape.
	v = 9
	buf.Reset()
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "sdpopt_test_dynamic 9") {
		t.Errorf("gauge func not re-evaluated:\n%s", buf.String())
	}

	// Idempotent re-registration, nil safety.
	RegisterBuildInfo(r)
	RegisterBuildInfo(nil)
	var nilR *Registry
	nilR.GaugeFunc("x", func() int64 { return 1 })
}
