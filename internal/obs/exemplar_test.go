package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestHistogramExemplars(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("sdpopt_test_seconds")
	h.ObserveExemplar(2*time.Millisecond, "aaaa")
	h.ObserveExemplar(3*time.Second, "bbbb")
	h.Observe(time.Millisecond) // plain observation, no exemplar

	exs := h.Exemplars()
	if len(exs) != 2 {
		t.Fatalf("Exemplars() = %d, want 2", len(exs))
	}
	ids := map[string]time.Duration{}
	for _, ex := range exs {
		ids[ex.TraceID] = ex.Value
	}
	if ids["aaaa"] != 2*time.Millisecond || ids["bbbb"] != 3*time.Second {
		t.Fatalf("exemplars = %v", ids)
	}

	// A later observation in the same bucket replaces the exemplar.
	h.ObserveExemplar(2500*time.Microsecond, "cccc")
	found := false
	for _, ex := range h.Exemplars() {
		if ex.TraceID == "aaaa" {
			t.Error("replaced exemplar still present")
		}
		if ex.TraceID == "cccc" {
			found = true
		}
	}
	if !found {
		t.Error("replacing exemplar missing")
	}

	// Registry-wide view carries metric name and bucket bound.
	infos := r.Exemplars()
	if len(infos) != 2 {
		t.Fatalf("Registry.Exemplars() = %d, want 2", len(infos))
	}
	for _, info := range infos {
		if info.Metric != "sdpopt_test_seconds" || info.LE == "" || info.TraceID == "" {
			t.Fatalf("bad ExemplarInfo: %+v", info)
		}
	}

	// An empty trace ID degrades to Observe.
	var nilH *Histogram
	nilH.ObserveExemplar(time.Second, "x")
	if nilH.Exemplars() != nil {
		t.Error("nil histogram returned exemplars")
	}
}

// TestExemplarExposition checks exemplars appear only in the OpenMetrics
// text (with the # EOF terminator) and never in the classic 0.0.4 format,
// which strict parsers would reject.
func TestExemplarExposition(t *testing.T) {
	r := NewRegistry()
	r.Histogram("sdpopt_test_seconds").ObserveExemplar(5*time.Millisecond, "deadbeef")

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
	if !strings.Contains(om.String(), `# {trace_id="deadbeef"}`) {
		t.Errorf("OpenMetrics exposition missing exemplar:\n%s", om.String())
	}
	if !strings.HasSuffix(strings.TrimSpace(om.String()), "# EOF") {
		t.Error("OpenMetrics exposition missing # EOF")
	}
}
