// Command sdpbench is the repository's benchmark: it starts the optimizer
// service in this process the way `sdplab serve` configures it, drives
// POST /optimize over loopback HTTP with seeded workloads, checks every
// answer, and prints every metric by name with its unit. BENCHMARK.json at
// the repository root is its contract with the driver; README.md explains
// the workloads, the metrics and how to read a trace.
//
// It imports only the root sdpopt facade and the standard library, so that
// refactors behind the facade never need an edit here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

var stderr io.Writer = os.Stderr

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

// clientCount is C: one connection per processor, at most four.
func clientCount() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("sdpbench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Int64("seed", 42, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 20, "length of the measured phase")
	trace := fs.Int("trace", 0, "0 reports the end-to-end metrics; 1 runs the traced replay and reports the per-layer metrics")
	scale := fs.Float64("scale", 1, "shrink pools, warm-ups and the replay by this factor (smoke tests)")
	outDir := fs.String("out", "benchmark/out", "directory for trace files")
	record := fs.String("record", "", "append each run's result to this JSON-lines file, the input of `compare`")
	golden := fs.String("update-golden", "", "rewrite this golden.json from the generated query populations and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if runtime.NumCPU() < 2 {
		fmt.Fprintln(stderr, "benchmark: needs at least 2 processors: the load generator and the server share this process")
		return 1
	}
	if *golden != "" {
		if err := updateGolden(*golden, clientCount()); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	var run []*workload
	if *name == "all" {
		for i := range workloads {
			run = append(run, &workloads[i])
		}
	} else if w := workloadByName(*name); w != nil {
		run = []*workload{w}
	} else {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || *scale <= 0 || *scale > 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: need -seconds > 0, 0 < -scale <= 1 and -trace 0 or 1")
		return 2
	}
	for _, w := range run {
		cfg := config{w: w, seed: *seed, seconds: *seconds, scale: *scale, clients: clientCount(), outDir: *outDir}
		var res *result
		var err error
		if *trace == 1 {
			res, err = runTraced(cfg)
		} else {
			res, err = runEndToEnd(cfg)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		if *record != "" {
			if err := appendRecord(*record, runRecord{Workload: w.name, Seed: *seed, Trace: *trace, Result: res}); err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
		}
		if err := printResult(stdout, cfg, *trace, res); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// printResult prints every metric by name with its unit, then the result
// object the driver reads as the last line. It fails, before printing
// anything, only on a value JSON cannot carry: a NaN or an infinity.
func printResult(w io.Writer, cfg config, trace int, res *result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	loop := fmt.Sprintf("closed loop, %d clients", cfg.clients)
	if cfg.w.open {
		loop = fmt.Sprintf("open loop, Poisson %g req/s over %d connections", cfg.w.rate, cfg.clients)
	}
	fmt.Fprintf(w, "# %s seed %d trace %d: %s, %d requests, %d failed, latency limit %g ms\n",
		cfg.w.name, cfg.seed, trace, loop, res.Attempted, res.Failed, cfg.w.limitMS)
	for _, n := range sortedKeys(res.Metrics) {
		fmt.Fprintf(w, "%-36s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// runRecord is one line of a -record file.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    int     `json:"trace"`
	Result   *result `json:"result"`
}

func appendRecord(path string, rec runRecord) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
