package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sdpopt"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}, {10, 1}, {11, 2}} {
		if got := percentile(ten, c.p); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if got := percentile(hundred, 99); got != 99 {
		t.Errorf("percentile(1..100, 99) = %g, want 99", got)
	}
}

// TestQuartilesMatchPython pins quartiles to the values of Python's
// statistics.quantiles(values, n=4), which the driver judges spread by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		vs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 4, 1, 5}, 1, 4.5},
		{[]float64{10, 20}, 7.5, 22.5},
	} {
		q1, q3 := quartiles(c.vs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.vs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestSelfTimeOverlappingChildren builds a span tree by hand: the root runs
// 0..100 with children 10..40 and 30..60 (overlapping, union 50) and 70..80;
// the first child has a child of its own 15..25 and one that outlives it.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 7, Parent: -1, Name: "request", Start: 0, End: 100},
		{ID: 3, Parent: 7, Name: "a", Start: 10, End: 40},
		{ID: 4, Parent: 7, Name: "b", Start: 30, End: 60},
		{ID: 5, Parent: 7, Name: "c", Start: 70, End: 80},
		{ID: 9, Parent: 3, Name: "a.inner", Start: 15, End: 25},
		{ID: 8, Parent: 3, Name: "a.late", Start: 35, End: 50},
	}
	want := []int64{40, 15, 30, 10, 10, 15}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestShapeChecker(t *testing.T) {
	want := []string{"R1", "R2", "R3"}
	if err := checkShape("((R1 ⋈ R3) ⋈ R2)", want); err != nil {
		t.Errorf("correct shape rejected: %v", err)
	}
	for name, shape := range map[string]string{
		"duplicated": "((R1 ⋈ R3) ⋈ (R2 ⋈ R3))",
		"missing":    "(R1 ⋈ R3)",
		"unknown":    "((R1 ⋈ R9) ⋈ R2)",
		"swapped in": "((R1 ⋈ R1) ⋈ R2)",
	} {
		if err := checkShape(shape, want); err == nil {
			t.Errorf("%s relation accepted: %s", name, shape)
		}
	}
}

// poolBytes renders everything a client would send, in order.
func poolBytes(p *pool) []byte {
	var b bytes.Buffer
	for _, ref := range p.sequence {
		b.Write(p.entries[ref.entry].bodies[ref.spelling])
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func TestSameSeedSameInputs(t *testing.T) {
	cat := sdpopt.PaperSchema()
	for i := range workloads {
		w := &workloads[i]
		a, err := buildPool(cat, w, 11, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildPool(cat, w, 11, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		c, err := buildPool(cat, w, 12, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(poolBytes(a), poolBytes(b)) {
			t.Errorf("%s: the same seed gave two request sequences", w.name)
		}
		if bytes.Equal(poolBytes(a), poolBytes(c)) {
			t.Errorf("%s: two seeds gave the same request sequence", w.name)
		}
		if len(a.sequence)%a.cycle != 0 {
			t.Errorf("%s: sequence of %d is not whole cycles of %d", w.name, len(a.sequence), a.cycle)
		}
	}
	if a, b := arrivalSchedule(5, 150, 3), arrivalSchedule(5, 150, 3); !reflect.DeepEqual(a, b) || len(a) < 300 {
		t.Errorf("the same seed gave two arrival schedules, or too few arrivals (%d)", len(a))
	}
	if reflect.DeepEqual(arrivalSchedule(5, 150, 3), arrivalSchedule(6, 150, 3)) {
		t.Error("two seeds gave the same arrival schedule")
	}
}

// TestWeightedCyclesHoldTheSameRequests checks what makes per-cycle rates
// comparable: every cycle of a weighted mix is a permutation of the first.
func TestWeightedCyclesHoldTheSameRequests(t *testing.T) {
	p, err := buildPool(sdpopt.PaperSchema(), workloadByName("cold-enum"), 3, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	count := func(c int) map[int32]int {
		m := map[int32]int{}
		for _, ref := range p.sequence[c*p.cycle : (c+1)*p.cycle] {
			m[ref.entry]++
		}
		return m
	}
	first := count(0)
	for c := 1; c < sequenceCycles; c++ {
		if !reflect.DeepEqual(count(c), first) {
			t.Fatalf("cycle %d holds other requests than cycle 0", c)
		}
	}
}

// TestSpellingsShareFingerprint checks that the four spellings of a warm-hit
// query are one query to the server, or are counted as split.
func TestSpellingsShareFingerprint(t *testing.T) {
	cat := sdpopt.PaperSchema()
	p, err := buildPool(cat, workloadByName("warm-hit"), 9, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	split := 0
	for _, e := range p.entries {
		if len(e.bodies) != 4 {
			t.Fatalf("%s has %d spellings, want 4", e.label, len(e.bodies))
		}
		seen := map[string]bool{}
		for i, body := range e.bodies {
			var req optimizeRequest
			if err := json.Unmarshal(body, &req); err != nil {
				t.Fatal(err)
			}
			if (req.SQL != "") == (req.Query != nil) {
				t.Fatalf("%s spelling %d carries both or neither of sql and query", e.label, i)
			}
			var q *sdpopt.Query
			if req.SQL != "" {
				q, err = sdpopt.ParseSQL(cat, req.SQL)
			} else {
				var preds []sdpopt.Pred
				for _, sp := range req.Query.Preds {
					preds = append(preds, sdpopt.Pred{LeftRel: sp.LeftRel, LeftCol: sp.LeftCol, RightRel: sp.RightRel, RightCol: sp.RightCol})
				}
				q, err = sdpopt.NewQuery(cat, req.Query.Rels, preds, nil)
			}
			if err != nil {
				t.Fatalf("%s spelling %d: %v", e.label, i, err)
			}
			seen[sdpopt.QueryFingerprint(q)] = true
		}
		if bytes.Equal(e.bodies[0], e.bodies[2]) || bytes.Equal(e.bodies[1], e.bodies[3]) {
			t.Errorf("%s: the permuted spelling equals the original", e.label)
		}
		if len(seen) > 1 {
			split++
		}
	}
	if split != p.canonSplit {
		t.Errorf("%d entries have spellings with different fingerprints, the pool counts %d", split, p.canonSplit)
	}
}

func TestVerdict(t *testing.T) {
	old := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name   string
		new    []float64
		better string
		bound  float64
		want   string
	}{
		{"same", []float64{100, 100, 101, 99, 100}, "lower", 0.05, "unchanged"},
		{"slower latency", []float64{120, 121, 119, 120, 122}, "lower", 0.05, "regressed"},
		{"faster latency", []float64{80, 81, 79, 80, 82}, "lower", 0.05, "improved"},
		{"higher throughput", []float64{120, 121, 119, 120, 122}, "higher", 0.05, "improved"},
		{"lower throughput", []float64{80, 81, 79, 80, 82}, "higher", 0.05, "regressed"},
		{"noisy", []float64{70, 150, 108, 109, 60}, "lower", 0.05, "unresolved"},
	} {
		if got, _, _ := verdict(old, c.new, c.better, c.bound); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestContractMatchesTables keeps BENCHMARK.json and the Go tables in step.
func TestContractMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) || len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d workloads, %d end-to-end and %d per-layer metrics; the tables have %d, %d and %d",
			len(spec.Workloads), len(spec.EndToEnd), len(spec.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the table %q", i, spec.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	hasSetup := false
	for i, m := range endToEnd {
		if g := spec.EndToEnd[i]; g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || g.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the table %+v", i, g, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower"
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for i, m := range perLayer {
		if g := spec.PerLayer[i]; g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the table %+v", i, g, m)
		}
		if !strings.HasPrefix(m.Name, m.Layer+".") {
			t.Errorf("%s is not named after its layer %s", m.Name, m.Layer)
		}
	}
}

func TestGoldenMatchesPopulation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "golden.json")
	if err := updateGolden(path, 2); err != nil {
		t.Fatal(err)
	}
	fresh, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh, goldenJSON) {
		t.Error("golden.json no longer matches the generated populations; if the change is meant, run -update-golden in a change of its own")
	}
}

// TestSmokeAllWorkloads runs every workload end to end and traced against
// the in-process server, shrunk to a fiftieth.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers and measures for a few seconds")
	}
	var errOut bytes.Buffer
	stderr = &errOut
	defer func() { stderr = os.Stderr }()
	out := t.TempDir()
	for _, trace := range []string{"0", "1"} {
		for _, w := range workloads {
			var stdout bytes.Buffer
			errOut.Reset()
			code := benchMain([]string{"--workload", w.name, "--seed", "7", "--seconds", "0.5", "--trace", trace, "-scale", "0.02", "-out", out}, &stdout)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d: %s", w.name, trace, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line is not the result object: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct %v, %d of %d failed: %s", w.name, trace, res.Correct, res.Failed, res.Attempted, errOut.String())
			}
			want := map[string]string{}
			if trace == "0" {
				for _, m := range endToEnd {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range perLayer {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace %s: metric %s = %+v (present %v), want a number in %s", w.name, trace, name, m, ok, unit)
				}
				if trace == "0" && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, must never be 0", w.name, name, m.Value)
				}
			}
			if trace == "1" {
				if _, err := os.Stat(filepath.Join(out, "trace-"+w.name+".jsonl")); err != nil {
					t.Errorf("%s: no trace file: %v", w.name, err)
				}
				if w.fill && res.Metrics["plancache.hit_share"].Value != 1 {
					t.Errorf("%s: hit share %g, want 1", w.name, res.Metrics["plancache.hit_share"].Value)
				}
			}
		}
	}
}

func TestCompareExitCode(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50s ...float64) string {
		path := filepath.Join(dir, name)
		for _, v := range p50s {
			rec := runRecord{Workload: "warm-hit", Result: &result{Correct: true, Attempted: 1, Metrics: map[string]metric{"latency_p50_ms": {Value: v, Unit: "ms"}}}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	old := write("old.jsonl", 1.00, 1.01, 0.99, 1.00, 1.02)
	same := write("same.jsonl", 1.01, 1.00, 1.00, 0.99, 1.01)
	slow := write("slow.jsonl", 1.30, 1.31, 1.29, 1.30, 1.32)
	spec := filepath.Join("..", "BENCHMARK.json")
	stderr = io.Discard
	defer func() { stderr = os.Stderr }()
	var out bytes.Buffer
	if code := compareMain([]string{"-spec", spec, old, same}, &out); code != 0 {
		t.Errorf("comparing equal sets: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareMain([]string{"-spec", spec, old, slow}, &out); code != 1 || !strings.Contains(out.String(), "regressed") {
		t.Errorf("comparing against a 30%% slower set: exit %d\n%s", code, out.String())
	}
}
