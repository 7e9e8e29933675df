package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// exemplarsOf returns the registry's exemplars of one metric by trace ID.
func exemplarsOf(r *Registry, metric string) map[string]ExemplarInfo {
	out := map[string]ExemplarInfo{}
	for _, info := range r.Exemplars() {
		if info.Metric == metric {
			out[info.TraceID] = info
		}
	}
	return out
}

func TestHistogramExemplars(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("sdpopt_test_seconds", SecondsBuckets)
	h.ObserveExemplar((2 * time.Millisecond).Seconds(), "aaaa")
	h.ObserveExemplar((3 * time.Second).Seconds(), "bbbb")
	h.Observe(time.Millisecond.Seconds()) // plain observation, no exemplar

	exs := exemplarsOf(r, "sdpopt_test_seconds")
	if len(exs) != 2 {
		t.Fatalf("Exemplars() = %d, want 2", len(exs))
	}
	if exs["aaaa"].Value != 0.002 || exs["bbbb"].Value != 3 {
		t.Fatalf("exemplars = %+v", exs)
	}
	for _, info := range exs {
		if info.LE == "" || info.Time.IsZero() {
			t.Fatalf("bad ExemplarInfo: %+v", info)
		}
	}

	// A later observation in the same bucket replaces the exemplar.
	h.ObserveExemplar((2500 * time.Microsecond).Seconds(), "cccc")
	exs = exemplarsOf(r, "sdpopt_test_seconds")
	if _, ok := exs["aaaa"]; ok {
		t.Error("replaced exemplar still present")
	}
	if _, ok := exs["cccc"]; !ok || len(exs) != 2 {
		t.Errorf("replacing exemplar missing: %+v", exs)
	}

	// A nil histogram ignores exemplars.
	var nilH *Histogram
	nilH.ObserveExemplar(1, "x")
	if nilH.Count() != 0 || nilH.Sum() != 0 {
		t.Error("nil histogram not inert")
	}
}

// TestExemplarExposition checks exemplars appear only in the OpenMetrics
// text (with the # EOF terminator) and never in the classic 0.0.4 format,
// which strict parsers would reject.
func TestExemplarExposition(t *testing.T) {
	r := NewRegistry()
	r.Histogram("sdpopt_test_seconds", SecondsBuckets).ObserveExemplar((5 * time.Millisecond).Seconds(), "deadbeef")

	var classic, om bytes.Buffer
	if err := r.WritePrometheus(&classic); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteOpenMetrics(&om); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(classic.String(), "deadbeef") {
		t.Error("classic exposition leaked an exemplar")
	}
	if !strings.Contains(om.String(), `# {trace_id="deadbeef"} 0.005 `) {
		t.Errorf("OpenMetrics exposition missing exemplar:\n%s", om.String())
	}
	if !strings.HasSuffix(strings.TrimSpace(om.String()), "# EOF") {
		t.Error("OpenMetrics exposition missing # EOF")
	}
}

// TestFloatHistogramBuckets checks that a ratio histogram's observations at
// the paper's quality thresholds land at or below their bound (le
// semantics).
func TestFloatHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("sdpopt_test_ratio", RatioBuckets)
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

// TestFloatHistogramExposition checks a labelled histogram with its own
// bounds in the OpenMetrics text, the classic text and Registry.Exemplars.
func TestFloatHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(Label("sdpopt_test_ratio", "tech", "greedy"), []float64{1, 2})
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
		t.Error("classic exposition leaked an exemplar")
	}

	// Registry-wide exemplar view carries the bucket bound.
	if info, ok := exemplarsOf(r, `sdpopt_test_ratio{tech="greedy"}`)["cafe"]; !ok || info.Value != 1.5 || info.LE != "2" {
		t.Errorf("Registry.Exemplars() missing exemplar: %+v", r.Exemplars())
	}

	var nilR *Registry
	if nilR.Histogram("x", RatioBuckets) != nil {
		t.Error("nil registry handed out a histogram")
	}
}
