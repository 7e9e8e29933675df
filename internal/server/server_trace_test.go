package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"

	"sdpopt/internal/obs"
	"sdpopt/internal/obs/span"
	"sdpopt/internal/plancache"
	"sdpopt/internal/workload"
)

const starSQL = "SELECT * FROM R1 a, R2 b, R3 c, R4 d, R5 e WHERE a.c1 = b.c1 AND a.c2 = c.c1 AND a.c3 = d.c1 AND a.c4 = e.c1"

// getFlight pulls and decodes /debug/flight.json.
func getFlight(t *testing.T, url string) *span.FlightDump {
	t.Helper()
	resp, err := http.Get(url + "/debug/flight.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	d, err := span.ReadDump(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// spansNamed walks a dump span tree collecting spans with the given name.
func spansNamed(s span.SpanJSON, name string) []span.SpanJSON {
	var out []span.SpanJSON
	if s.Name == name {
		out = append(out, s)
	}
	for _, c := range s.Children {
		out = append(out, spansNamed(c, name)...)
	}
	return out
}

// TestRequestSpanTree is the acceptance check: one /optimize request yields
// a span tree at /debug/flight.json covering admission, canonicalization,
// cache, and — for SDP — per-level enumeration and per-partition pruning,
// under the caller's traceparent trace ID.
func TestRequestSpanTree(t *testing.T) {
	ob := obs.New()
	cache := plancache.New(plancache.Options{Obs: ob})
	_, ts := newTestServer(t, Options{Cache: cache, Obs: ob})

	const callerTP = "00-0123456789abcdef0123456789abcdef-00000000000000aa-01"
	body, _ := json.Marshal(OptimizeRequest{SQL: starSQL})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/optimize", bytes.NewReader(body))
	req.Header.Set("traceparent", callerTP)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize: code %d", resp.StatusCode)
	}
	echo := resp.Header.Get("traceparent")
	if !strings.HasPrefix(echo, "00-0123456789abcdef0123456789abcdef-") {
		t.Fatalf("traceparent echo %q does not keep the caller's trace ID", echo)
	}

	d := getFlight(t, ts.URL)
	var tr *span.TraceJSON
	traces := d.Traces()
	for i := range traces {
		if traces[i].TraceID == "0123456789abcdef0123456789abcdef" {
			tr = &traces[i]
		}
	}
	if tr == nil {
		t.Fatal("request trace not in flight dump")
	}
	if tr.Remote != "00000000000000aa" {
		t.Errorf("remote parent = %q, want caller span ID", tr.Remote)
	}
	if tr.Root == nil || tr.Root.Name != "request" {
		t.Fatalf("root span = %+v", tr.Root)
	}
	fp, _ := tr.Root.Attrs["fingerprint"].(string)
	if tr.Root.Attrs["technique"] != "sdp" || tr.Root.Attrs["source"] != "miss" || fp == "" {
		t.Errorf("root attrs = %+v", tr.Root.Attrs)
	}
	for _, name := range []string{"queue.wait", "canonicalize", "cache.lookup", "optimize", "sdp.level", "sdp.partition", "level"} {
		if len(spansNamed(*tr.Root, name)) == 0 {
			t.Errorf("span %q missing from tree:\n%s", name, tr.Render())
		}
	}
	lookups := spansNamed(*tr.Root, "cache.lookup")
	if len(lookups) != 1 || lookups[0].Attrs["source"] != "miss" {
		t.Errorf("cache.lookup = %+v", lookups)
	}

	// A repeat of the same shape hits the cache: its trace has a hit lookup
	// and no optimize span.
	code, _ := postOptimize(t, ts.URL, OptimizeRequest{SQL: starSQL})
	if code != http.StatusOK {
		t.Fatalf("second request: %d", code)
	}
	d = getFlight(t, ts.URL)
	var hit *span.TraceJSON
	traces = d.Traces()
	for i := range traces {
		if traces[i].TraceID != "0123456789abcdef0123456789abcdef" {
			hit = &traces[i]
		}
	}
	if hit == nil {
		t.Fatal("hit trace not recorded")
	}
	if ls := spansNamed(*hit.Root, "cache.lookup"); len(ls) != 1 || ls[0].Attrs["source"] != "hit" {
		t.Errorf("hit lookup = %+v", ls)
	}
	if len(spansNamed(*hit.Root, "optimize")) != 0 {
		t.Error("cache hit ran an optimize span")
	}
}

// TestQueueMetricAndExemplars checks the queue-wait histogram exists
// separately from the latency histogram, and that the OpenMetrics
// exposition carries trace-ID exemplars while the classic one stays clean.
func TestQueueMetricAndExemplars(t *testing.T) {
	ob := obs.New()
	_, ts := newTestServer(t, Options{Obs: ob})
	if code, _ := postOptimize(t, ts.URL, OptimizeRequest{SQL: testSQL}); code != http.StatusOK {
		t.Fatalf("optimize: %d", code)
	}

	get := func(accept string) string {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 32<<10)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return b.String()
	}

	classic := get("")
	if !strings.Contains(classic, "sdpopt_server_queue_seconds") {
		t.Error("queue-wait histogram missing from /metrics")
	}
	if strings.Contains(classic, "trace_id") {
		t.Error("classic exposition leaked exemplars (breaks 0.0.4 parsers)")
	}
	om := get("application/openmetrics-text")
	if !strings.Contains(om, "# {trace_id=") {
		t.Error("OpenMetrics exposition has no exemplars")
	}
	if !strings.HasSuffix(strings.TrimSpace(om), "# EOF") {
		t.Error("OpenMetrics exposition missing # EOF terminator")
	}
}

// TestErrorTracePinned checks a 504 trace lands in the notable ring and
// survives later fast traffic.
func TestErrorTracePinned(t *testing.T) {
	ob := obs.New()
	_, ts := newTestServer(t, Options{Obs: ob})
	qs, err := workload.Instances(workload.Spec{
		Cat: workload.PaperSchema(), Topology: workload.Star, NumRelations: 15, Seed: 3,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	code, _ := postOptimize(t, ts.URL, OptimizeRequest{
		SQL: qs[0].SQL(), Technique: "dp", TimeoutMS: 1, NoCache: true,
	})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("code %d, want 504", code)
	}
	for i := 0; i < 5; i++ {
		if code, _ := postOptimize(t, ts.URL, OptimizeRequest{SQL: testSQL}); code != http.StatusOK {
			t.Fatalf("fast request %d: %d", i, code)
		}
	}
	d := getFlight(t, ts.URL)
	found := false
	for _, tr := range d.Notable {
		if tr.Code == http.StatusGatewayTimeout && tr.Error != "" {
			found = true
		}
	}
	if !found {
		t.Fatalf("504 trace not pinned in notable ring (notable=%d recent=%d)", len(d.Notable), len(d.Recent))
	}
	if len(d.Recent) < 5 {
		t.Errorf("fast traces not in recent ring: %d", len(d.Recent))
	}
}

// TestFlightUnderLoad races concurrent /optimize traffic against
// /debug/flight.json reads; meaningful under -race.
func TestFlightUnderLoad(t *testing.T) {
	ob := obs.New()
	cache := plancache.New(plancache.Options{Obs: ob})
	_, ts := newTestServer(t, Options{Cache: cache, Obs: ob, MaxConcurrent: 4, MaxQueue: 64,
		Flight: span.RecorderOptions{Recent: 8, Notable: 8}})

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				body, _ := json.Marshal(OptimizeRequest{SQL: starSQL})
				resp, err := http.Post(ts.URL+"/optimize", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}()
	}
	stop := make(chan struct{})
	var rg sync.WaitGroup
	for r := 0; r < 2; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/debug/flight.json")
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := span.ReadDump(resp.Body); err != nil {
					t.Errorf("flight dump undecodable mid-traffic: %v", err)
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	close(stop)
	rg.Wait()

	d := getFlight(t, ts.URL)
	if d.Counts.Finished != 60 {
		t.Errorf("finished = %d, want 60", d.Counts.Finished)
	}
}
