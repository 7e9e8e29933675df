package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json that compare needs.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readRecords groups a -record file's end-to-end runs by workload and
// metric.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace != 0 || rec.Result == nil {
			continue
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Result.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// verdict classifies one cell. worse is the relative change of the median
// in the metric's bad direction. A change beyond the bound counts only when
// it also exceeds the run-to-run spread of both sides, or when every new run
// lies on one side of every old run; otherwise it is unresolved.
func verdict(old, new []float64, better string, bound float64) (string, float64, float64) {
	// bad maps a value so that larger is worse, whatever the direction.
	bad := func(v float64) float64 {
		if better == "higher" {
			return -v
		}
		return v
	}
	mo, mn := median(old), median(new)
	worse := (bad(mn) - bad(mo)) / math.Abs(mo)
	spread := 0.0
	if len(old) >= 2 && len(new) >= 2 {
		o1, o3 := quartiles(old)
		n1, n3 := quartiles(new)
		spread = math.Max(o3-o1, n3-n1) / math.Abs(mo)
	}
	minOld, maxOld, minNew, maxNew := math.Inf(1), math.Inf(-1), math.Inf(1), math.Inf(-1)
	for _, v := range old {
		minOld, maxOld = math.Min(minOld, bad(v)), math.Max(maxOld, bad(v))
	}
	for _, v := range new {
		minNew, maxNew = math.Min(minNew, bad(v)), math.Max(maxNew, bad(v))
	}
	separated := worse > 0 && minNew > maxOld || worse < 0 && maxNew < minOld
	switch {
	case math.Abs(worse) <= bound:
		return "unchanged", worse, spread
	case math.Abs(worse) <= spread && !separated:
		return "unresolved", worse, spread
	case worse > 0:
		return "regressed", worse, spread
	}
	return "improved", worse, spread
}

// compareMain implements `sdpbench compare old.jsonl new.jsonl`.
func compareMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark contract holding each metric's direction and bound")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: sdpbench compare [-spec BENCHMARK.json] old.jsonl new.jsonl")
		return 2
	}
	raw, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintf(stderr, "compare: %s: %v\n", *specPath, err)
		return 2
	}
	old, err := readRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	new, err := readRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%-12s %-24s %14s %14s %9s %8s %8s  %s\n", "workload", "metric", "old median", "new median", "new/old", "spread", "bound", "verdict")
	regressed := 0
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			o, n := old[w.Name][m.Name], new[w.Name][m.Name]
			if len(o) == 0 || len(n) == 0 {
				fmt.Fprintf(stdout, "%-12s %-24s %14s %14s %9s %8s %8.3f  missing (%d old, %d new runs)\n", w.Name, m.Name, "-", "-", "-", "-", m.Bound, len(o), len(n))
				continue
			}
			v, _, spread := verdict(o, n, m.Better, m.Bound)
			if v == "regressed" {
				regressed++
			}
			fmt.Fprintf(stdout, "%-12s %-24s %14.6g %14.6g %9.4f %8.4f %8.3f  %s (%s is better; %d vs %d runs, %s)\n",
				w.Name, m.Name, median(o), median(n), median(n)/median(o), spread, m.Bound, v, m.Better, len(o), len(n), m.Unit)
		}
	}
	if regressed > 0 {
		fmt.Fprintf(stdout, "%d regressed\n", regressed)
		return 1
	}
	return 0
}
