package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	// Every operation on a nil observer, registry, or metric handle must be
	// a no-op — this is the disabled path the engines ride.
	var o *Observer
	o.Counter("x").Add(1)
	o.Gauge("y").Set(5)
	o.Gauge("y").SetMax(9)
	o.Histogram("z", SecondsBuckets).Observe(1)
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x", SecondsBuckets) != nil {
		t.Fatal("nil registry handed out a live handle")
	}
	if err := r.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryCountersGaugesHistograms(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("sdpopt_plans_costed_total")
	c.Add(3)
	c.Add(4)
	if got := c.Value(); got != 7 {
		t.Fatalf("counter = %d, want 7", got)
	}
	if r.Counter("sdpopt_plans_costed_total") != c {
		t.Fatal("counter handle not stable across resolves")
	}
	g := r.Gauge("sdpopt_memo_classes_alive")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
	g.SetMax(5)
	if g.Value() != 7 {
		t.Fatal("SetMax lowered the gauge")
	}
	g.SetMax(12)
	if g.Value() != 12 {
		t.Fatal("SetMax did not raise the gauge")
	}
	h := r.Histogram("sdpopt_level_seconds", SecondsBuckets)
	h.Observe((2 * time.Microsecond).Seconds())
	h.Observe((3 * time.Millisecond).Seconds())
	h.Observe((10 * time.Minute).Seconds()) // beyond the last bucket: overflow slot
	if h.Count() != 3 {
		t.Fatalf("hist count = %d, want 3", h.Count())
	}
	if h.Sum() <= 600 {
		t.Fatalf("hist sum = %v too small", h.Sum())
	}
	if n := h.buckets[len(SecondsBuckets)].Load(); n != 1 {
		t.Fatalf("overflow bucket = %d, want 1", n)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("sdpopt_plans_costed_total").Add(42)
	r.Gauge("sdpopt_memo_classes_alive").Set(7)
	r.Histogram(Label("sdpopt_optimize_seconds", "tech", "SDP"), SecondsBuckets).Observe((3 * time.Millisecond).Seconds())
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE sdpopt_plans_costed_total counter",
		"sdpopt_plans_costed_total 42",
		"# TYPE sdpopt_memo_classes_alive gauge",
		"sdpopt_memo_classes_alive 7",
		"# TYPE sdpopt_optimize_seconds histogram",
		`sdpopt_optimize_seconds_bucket{tech="SDP",le="+Inf"} 1`,
		`sdpopt_optimize_seconds_count{tech="SDP"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestLabel(t *testing.T) {
	if got := Label("m"); got != "m" {
		t.Fatalf("Label() = %q", got)
	}
	if got := Label("m", "tech", "IDP(7)"); got != `m{tech="IDP(7)"}` {
		t.Fatalf("Label() = %q", got)
	}
	if got := Label("m", "a", "1", "b", "2"); got != `m{a="1",b="2"}` {
		t.Fatalf("Label() = %q", got)
	}
}

// TestLabelMatchesFmt pins Label to the fmt rendering it replaced,
// name{k1=%q,k2=%q}, over values that exercise every quoting path, and checks
// that a label set longer than the stack buffer renders the same way.
func TestLabelMatchesFmt(t *testing.T) {
	fmtLabel := func(name string, kv ...string) string {
		var sb strings.Builder
		sb.WriteString(name)
		sb.WriteByte('{')
		for i := 0; i+1 < len(kv); i += 2 {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%s=%q", kv[i], kv[i+1])
		}
		sb.WriteByte('}')
		return sb.String()
	}
	long := strings.Repeat("x", 200)
	for _, kv := range [][]string{
		{"route", "/optimize", "code", "200"},
		{"v", `say "hi"`},
		{"v", `back\slash`},
		{"v", "line\nbreak\ttab"},
		{"v", "naïve ⋈ 連接"},
		{"v", "\x00\x7f\xff invalid utf-8"},
		{"v", ""},
		{"a", "", "b", ""},
		{"odd", "pair", "dangling"},
		{"v", long, "w", long},
	} {
		if got, want := Label("m", kv...), fmtLabel("m", kv...); got != want {
			t.Errorf("Label(m, %q) = %s, want %s", kv, got, want)
		}
	}
}

func TestHTTPEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("sdpopt_plans_costed_total").Add(5)
	addr, err := r.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}
	if out := get("/metrics"); !strings.Contains(out, "sdpopt_plans_costed_total 5") {
		t.Errorf("/metrics missing counter:\n%s", out)
	}
	if out := get("/debug/vars"); !strings.Contains(out, "memstats") {
		t.Error("/debug/vars missing memstats")
	}
	if out := get("/debug/pprof/"); !strings.Contains(out, "goroutine") {
		t.Error("/debug/pprof/ missing profile index")
	}
}

// TestRegistryRace hammers shared handles from many goroutines; run with
// -race this proves the registry is safe under concurrent engine runs.
func TestRegistryRace(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.Counter(MPlansCosted).Add(1)
				r.Gauge(MMemoAlive).Add(1)
				r.Gauge(MMemoPeakSimBytes).SetMax(int64(j))
				r.Histogram(MLevelSeconds, SecondsBuckets).ObserveExemplar(float64(j)/1e9, "t")
			}
		}()
	}
	wg.Wait()
	if got := r.Counter(MPlansCosted).Value(); got != 4000 {
		t.Fatalf("counter = %d, want 4000", got)
	}
	// Eight goroutines each observed j ns for j < 500: a lost CAS update
	// would drop at least 1e-9 from the sum.
	h := r.Histogram(MLevelSeconds, SecondsBuckets)
	if h.Count() != 4000 || math.Abs(h.Sum()-8*124750e-9) > 1e-12 {
		t.Fatalf("histogram count = %d, sum = %g, want 4000 and %g", h.Count(), h.Sum(), 8*124750e-9)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
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
