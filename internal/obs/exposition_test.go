package obs

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

var updateExposition = flag.Bool("update", false, "rewrite testdata/exposition.golden from current behavior")

const expositionGoldenPath = "testdata/exposition.golden"

// expositionRegistry holds one series of every kind the registry exposes:
// counters and gauges (a stored one and a function), a plain and a labelled
// duration histogram observed at and around bucket edges plus an overflow,
// and a labelled ratio histogram observed at and around the paper's quality
// thresholds. Every histogram observation carries an exemplar except the
// plain duration histogram's.
func expositionRegistry() *Registry {
	r := NewRegistry()
	r.Counter(MPlansCosted).Add(42)
	r.Counter(Label(MServerRequests, "route", "/optimize", "code", "200")).Add(3)
	r.Gauge(MMemoAlive).Set(7)
	r.GaugeFunc(MRegretQueueDepth, func() int64 { return 2 })
	durations := []time.Duration{
		999 * time.Nanosecond, time.Microsecond, 1001 * time.Nanosecond,
		4096*time.Microsecond - 1, 4096 * time.Microsecond, 4096*time.Microsecond + 1,
		3 * time.Minute,
	}
	plain := r.Histogram(MServerQueueSeconds, SecondsBuckets)
	labelled := r.Histogram(Label(MServerSeconds, "source", "miss"), SecondsBuckets)
	for i, d := range durations {
		plain.Observe(d.Seconds())
		labelled.ObserveExemplar(d.Seconds(), fmt.Sprintf("dur%02d", i))
	}
	ratio := r.Histogram(Label(MRegretRatio, "tech", "greedy", "shape", "star"), RatioBuckets)
	for i, v := range []float64{0.7, 1, 1.01, 1.3, 2, 10.5, 1000} {
		ratio.ObserveExemplar(v, fmt.Sprintf("ratio%02d", i))
	}
	return r
}

// exemplarTime matches the unix timestamp that ends an exemplar suffix.
var exemplarTime = regexp.MustCompile(` [0-9]+\.[0-9]{3}$`)

// expositionLines renders one exposition with exemplar timestamps masked,
// as lines sorted by expositionKey.
func expositionLines(t *testing.T, write func(*bytes.Buffer) error) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	for i, l := range lines {
		if strings.Contains(l, " # {trace_id=") {
			lines[i] = exemplarTime.ReplaceAllString(l, " <ts>")
		}
	}
	slices.SortFunc(lines, func(a, b string) int { return strings.Compare(expositionKey(a), expositionKey(b)) })
	return lines
}

// expositionKey is a line's identity: a _sum sample without its value,
// every other line whole.
func expositionKey(line string) string {
	if key, _, ok := sumSample(line); ok {
		return key
	}
	return line
}

// sumSample splits a _sum sample into its series and its value.
func sumSample(line string) (series, value string, ok bool) {
	i := strings.LastIndexByte(line, ' ')
	if i < 0 || strings.HasPrefix(line, "#") {
		return "", "", false
	}
	base, _ := splitLabeled(line[:i])
	if !strings.HasSuffix(base, "_sum") {
		return "", "", false
	}
	return line[:i], line[i+1:], true
}

// TestExposition pins the classic and the OpenMetrics text of a registry
// holding every series kind. The comparison is over sorted lines, so the
// order of blocks is free. _sum values compare within a relative 1e-12:
// a sum of durations is exact in integer nanoseconds and rounds in float64
// seconds. Every other line must match byte for byte.
func TestExposition(t *testing.T) {
	r := expositionRegistry()
	sections := []struct {
		name  string
		lines []string
	}{
		{"WritePrometheus", expositionLines(t, func(b *bytes.Buffer) error { return r.WritePrometheus(b) })},
		{"WriteOpenMetrics", expositionLines(t, func(b *bytes.Buffer) error { return r.WriteOpenMetrics(b) })},
	}
	if *updateExposition {
		var b strings.Builder
		for _, s := range sections {
			fmt.Fprintf(&b, "== %s\n", s.name)
			for _, l := range s.lines {
				b.WriteString(l + "\n")
			}
		}
		if err := os.WriteFile(expositionGoldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(expositionGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := map[string][]string{}
	var cur string
	for _, l := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		if name, ok := strings.CutPrefix(l, "== "); ok {
			cur = name
			continue
		}
		want[cur] = append(want[cur], l)
	}
	for _, s := range sections {
		w := want[s.name]
		if len(w) != len(s.lines) {
			t.Errorf("%s: %d lines, golden has %d:\n%s", s.name, len(s.lines), len(w), strings.Join(s.lines, "\n"))
			continue
		}
		for i, got := range s.lines {
			if !sameExpositionLine(got, w[i]) {
				t.Errorf("%s: line %d = %q, golden has %q", s.name, i, got, w[i])
			}
		}
	}
}

// sameExpositionLine compares two lines: _sum samples by series and by value
// within a relative 1e-12, everything else byte for byte.
func sameExpositionLine(got, want string) bool {
	gs, gv, gok := sumSample(got)
	ws, wv, wok := sumSample(want)
	if !gok || !wok {
		return got == want
	}
	g, err1 := strconv.ParseFloat(gv, 64)
	w, err2 := strconv.ParseFloat(wv, 64)
	return gs == ws && err1 == nil && err2 == nil && math.Abs(g-w) <= 1e-12*math.Abs(w)
}
