package span_test

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"sdpopt/internal/core"
	"sdpopt/internal/dp"
	"sdpopt/internal/obs/span"
	"sdpopt/internal/workload"
)

// TestNilSafety checks the span API's contract with the rest of the obs
// layer: every method is a no-op on a nil receiver, so instrumented code
// needs no "is tracing on" branches.
func TestNilSafety(t *testing.T) {
	var s *span.Span
	if s.Child("x") != nil {
		t.Error("nil.Child != nil")
	}
	if s.ChildAt("x", time.Now(), time.Second) != nil {
		t.Error("nil.ChildAt != nil")
	}
	s.SetAttr("k", 1)
	s.Add("c", 1)
	s.SetError("boom")
	s.Finish()
	s.FinishErr(nil)
	if s.Trace() != nil || s.TraceID() != "" || s.Name() != "" {
		t.Error("nil span accessors not zero")
	}

	var tr *span.Trace
	tr.Finish(200)
	if tr.ID() != "" || tr.Remote() != "" || tr.Root() != nil || tr.Traceparent() != "" {
		t.Error("nil trace accessors not zero")
	}
	if _, _, done := tr.Status(); done {
		t.Error("nil trace reports done")
	}

	if span.FromContext(nil) != nil {
		t.Error("FromContext(nil) != nil")
	}
	ctx := context.Background()
	if span.FromContext(ctx) != nil {
		t.Error("FromContext(empty ctx) != nil")
	}
	if span.NewContext(ctx, nil) != ctx {
		t.Error("NewContext(ctx, nil) should return ctx unchanged")
	}

	var rec *span.Recorder
	rec.Start(nil)
	rec.Finish(nil, 200)
	if rec.SlowThreshold() != 0 {
		t.Error("nil recorder threshold not zero")
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	root := span.New("request")
	tp := root.Trace().Traceparent()
	if len(tp) != 55 || !strings.HasPrefix(tp, "00-") {
		t.Fatalf("Traceparent() = %q, want 55-char version-00 header", tp)
	}

	// Ingesting our own echoed header adopts the trace ID and records the
	// caller's span as the remote parent.
	child := span.FromTraceparent(tp, "request")
	if child.TraceID() != root.TraceID() {
		t.Errorf("ingested trace ID %s != original %s", child.TraceID(), root.TraceID())
	}
	if child.Trace().Remote() == "" {
		t.Error("ingested trace lost the remote parent span ID")
	}
}

func TestFromTraceparentInvalid(t *testing.T) {
	const valid = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	for _, h := range []string{
		"",
		"garbage",
		valid[:54],             // truncated
		"01" + valid[2:],       // unknown version
		strings.ToUpper(valid), // uppercase hex is invalid per W3C
		"00-" + strings.Repeat("0", 32) + "-00f067aa0ba902b7-01",                 // zero trace-id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-" + strings.Repeat("0", 16) + "-01", // zero parent
	} {
		s := span.FromTraceparent(h, "request")
		if s == nil {
			t.Fatalf("header %q: got nil span, want fallback trace", h)
		}
		if s.Trace().Remote() != "" {
			t.Errorf("header %q: accepted as remote, want fresh fallback trace", h)
		}
	}
	s := span.FromTraceparent(valid, "request")
	if s.TraceID() != "4bf92f3577b34da6a3ce929d0e0e4736" || s.Trace().Remote() != "00f067aa0ba902b7" {
		t.Errorf("valid header parsed to trace=%s remote=%s", s.TraceID(), s.Trace().Remote())
	}
}

// findSpans walks a snapshot tree collecting every span with the given name.
func findSpans(s span.SpanJSON, name string) []span.SpanJSON {
	var out []span.SpanJSON
	if s.Name == name {
		out = append(out, s)
	}
	for _, c := range s.Children {
		out = append(out, findSpans(c, name)...)
	}
	return out
}

func TestSpanTreeSnapshot(t *testing.T) {
	rec := span.NewRecorder(span.RecorderOptions{SlowThreshold: time.Hour})
	root := span.New("request")
	rec.Start(root)

	c1 := root.Child("queue.wait")
	c1.Finish()
	c2 := root.Child("optimize")
	c2.SetAttr("tech", "sdp")
	c2.Add("plans_costed", 41)
	c2.Add("plans_costed", 1)
	c2.ChildAt("level", time.Now().Add(-time.Millisecond), time.Millisecond)
	c2.FinishErr(nil)
	root.SetError("late failure")
	rec.Finish(root, 500)

	d := rec.Snapshot()
	if len(d.Notable) != 1 || len(d.Recent) != 0 || len(d.Active) != 0 {
		t.Fatalf("error trace filed wrong: %d notable, %d recent, %d active",
			len(d.Notable), len(d.Recent), len(d.Active))
	}
	tr := d.Notable[0]
	if tr.Code != 500 || tr.Error != "late failure" || tr.Active {
		t.Errorf("trace = code %d err %q active %v", tr.Code, tr.Error, tr.Active)
	}
	if tr.Root == nil || tr.Root.Name != "request" || tr.Root.Running {
		t.Fatalf("bad root span: %+v", tr.Root)
	}
	opt := findSpans(*tr.Root, "optimize")
	if len(opt) != 1 || opt[0].Attrs["tech"] != "sdp" || opt[0].Counters["plans_costed"] != 42 {
		t.Fatalf("optimize span = %+v", opt)
	}
	if len(findSpans(*tr.Root, "level")) != 1 {
		t.Error("level child missing")
	}

	// Rendering includes the trace header and every span line.
	text := tr.Render()
	for _, want := range []string{"trace " + root.TraceID(), "queue.wait", "optimize", "tech=sdp", "plans_costed=42", "level"} {
		if !strings.Contains(text, want) {
			t.Errorf("Render() missing %q:\n%s", want, text)
		}
	}
}

// TestDumpRecordsSummarize checks the flight dump survives a JSON round
// trip and that Summarize reads the same numbers from the decoded span
// trees (attrs as float64) as from in-process ones (attrs as Go integers).
func TestDumpRecordsSummarize(t *testing.T) {
	rec := span.NewRecorder(span.RecorderOptions{})
	root := span.New("request")
	rec.Start(root)
	o := root.Child("optimize")
	o.SetAttr("tech", "sdp")
	o.SetAttr("plans_costed", int64(100))
	lv := o.ChildAt("level", time.Now(), 2*time.Millisecond)
	lv.SetAttr("tech", "sdp")
	lv.SetAttr("level", 2)
	lv.SetAttr("plans_costed", int64(60))
	lv.SetAttr("classes_created", 3)
	o.Finish()
	rec.Finish(root, 200)

	live := rec.Snapshot()
	raw, err := json.Marshal(live)
	if err != nil {
		t.Fatal(err)
	}
	d, err := span.ReadDump(strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(d.Traces()); got != 1 {
		t.Fatalf("Traces() = %d, want 1", got)
	}
	for name, dump := range map[string]*span.FlightDump{"live": live, "decoded": d} {
		s := span.Summarize(dump.Traces())
		if s.Spans != 3 {
			t.Errorf("%s: spans = %d, want 3", name, s.Spans)
		}
		if len(s.Techniques) != 1 || s.Techniques[0].Tech != "sdp" || s.Techniques[0].PlansCosted != 100 {
			t.Errorf("%s: techniques = %+v", name, s.Techniques)
		}
		if len(s.Levels) != 1 || s.Levels[0].Level != 2 || s.Levels[0].PlansCosted != 60 ||
			s.Levels[0].Classes != 3 || s.Levels[0].Total != 2*time.Millisecond {
			t.Errorf("%s: levels = %+v", name, s.Levels)
		}
	}
}

// TestEngineSpans runs real optimizations with a request span installed and
// checks the engines attach their per-level (and SDP per-partition) spans;
// with no span in ctx the same paths run span-free — the tracing-off
// nil-safety exercise over the full optimize path.
func TestEngineSpans(t *testing.T) {
	cat := workload.PaperSchema()
	q, err := workload.One(workload.Spec{Cat: cat, Topology: workload.Star, NumRelations: 8, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}

	// Tracing off: plain context, no span anywhere.
	if _, _, err := dp.Optimize(q, dp.Options{Ctx: context.Background()}); err != nil {
		t.Fatalf("dp tracing off: %v", err)
	}
	offOpts := core.DefaultOptions()
	offOpts.Ctx = context.Background()
	if _, _, err := core.Optimize(q, offOpts); err != nil {
		t.Fatalf("sdp tracing off: %v", err)
	}

	// Tracing on: DP attaches one "level" span per enumeration level.
	rec := span.NewRecorder(span.RecorderOptions{})
	root := span.New("request")
	rec.Start(root)
	if _, _, err := dp.Optimize(q, dp.Options{Ctx: span.NewContext(context.Background(), root)}); err != nil {
		t.Fatalf("dp tracing on: %v", err)
	}
	rec.Finish(root, 200)
	d := rec.Snapshot()
	levels := findSpans(*d.Recent[0].Root, "level")
	if len(levels) == 0 {
		t.Fatal("dp: no level spans")
	}
	for _, lv := range levels {
		if lv.Attrs["level"] == nil || lv.Attrs["tech"] == nil {
			t.Fatalf("level span missing attrs: %+v", lv.Attrs)
		}
	}

	// SDP attaches sdp.level spans with sdp.partition children.
	root2 := span.New("request")
	rec.Start(root2)
	opts := core.DefaultOptions()
	opts.Ctx = span.NewContext(context.Background(), root2)
	if _, _, err := core.Optimize(q, opts); err != nil {
		t.Fatalf("sdp tracing on: %v", err)
	}
	rec.Finish(root2, 200)
	d = rec.Snapshot()
	var sdpRoot *span.SpanJSON
	for _, tr := range d.Recent {
		if tr.TraceID == root2.TraceID() {
			sdpRoot = tr.Root
		}
	}
	if sdpRoot == nil {
		t.Fatal("sdp trace not in recorder")
	}
	sdpLevels := findSpans(*sdpRoot, "sdp.level")
	if len(sdpLevels) == 0 {
		t.Fatal("no sdp.level spans")
	}
	parts := findSpans(*sdpRoot, "sdp.partition")
	if len(parts) == 0 {
		t.Fatal("no sdp.partition spans")
	}
	for _, p := range parts {
		if p.Attrs["label"] == nil || p.Attrs["size"] == nil || p.Attrs["survivors"] == nil {
			t.Fatalf("sdp.partition span missing attrs: %+v", p.Attrs)
		}
	}
}
