// Command sdplab reproduces the paper's experiments.
//
// Usage:
//
//	sdplab list                          # show every experiment id
//	sdplab run -exp tab1.1               # reproduce Table 1.1
//	sdplab run -exp all -instances 100   # full paper-scale reproduction
//	sdplab run -exp tab3.3 -metrics :8080
//	sdplab serve -addr :8080             # the optimizer as an HTTP service
//	sdplab inspect flight.json           # render a /debug/flight.json dump
//	sdplab regret regret.json            # render a /debug/regret.json dump
//	sdplab feedback cardinality.json     # render a /debug/cardinality.json dump
//	sdplab robust -check                 # plan quality under cardinality error
//
// Flags tune the sample size (-instances), the RNG seed (-seed), the
// simulated memory budget in MB (-budget), and the skewed-schema variant
// (-skewed). -metrics serves Prometheus /metrics, expvar and pprof for the
// lifetime of the run. Throughput, latency and per-layer numbers
// are not measured here: that is benchmark/ (see BENCHMARK.json).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"sdpopt"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// command is one subcommand: it parses its own flags from args and reports
// on the two streams.
type command func(args []string, stdout, stderr io.Writer) error

var commands = map[string]command{
	"list":    listCmd,
	"run":     runCmd,
	"serve":   serveCmd,
	"inspect": inspectCmd,
	"robust":  robustCmd,
	// regret renders the /debug/regret.json document of a shadow-enabled
	// server: the counter line, the per-key quality table (ρ, W, bucket
	// shares), and the worst-regret exemplars with both plan trees.
	"regret": dumpCmd("regret", "regret.json", sdpopt.ReadRegretDump),
	// feedback renders the /debug/cardinality.json document of a
	// feedback-enabled server: the counter lines and the per-object
	// q-error/staleness table with sparkline windows.
	"feedback": dumpCmd("feedback", "cardinality.json", sdpopt.ReadFeedbackDump),
}

// run dispatches args[0] to its subcommand and returns the process exit
// code: 0 on success, 1 when the subcommand fails, 2 when there is none.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 || commands[args[0]] == nil {
		usage(stderr)
		return 2
	}
	err := commands[args[0]](args[1:], stdout, stderr)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	fmt.Fprintln(stderr, "sdplab:", err)
	return 1
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage:
  sdplab list
  sdplab run -exp <id|all> [-instances N] [-seed S] [-budget MB] [-skewed] [-parallel P]
             [-metrics ADDR]
  sdplab serve [-addr ADDR] [-catalog FILE.json] [-skewed] [-cache N] [-shards N]
             [-max-concurrent N] [-queue N] [-budget MB] [-timeout D]
             [-flight-slow-ms MS] [-flight-recent N] [-flight-notable N]
             [-shadow-rate F] [-shadow-hit-rate F] [-shadow-workers N] [-shadow-queue N]
             [-shadow-dp-rels N] [-shadow-dedup D] [-shadow-pin-ratio F]
             [-exec-sample-rate F] [-exec-max-rels N] [-exec-max-rows N] [-feedback-log FILE.jsonl]
  sdplab inspect [-top N] [-trace PREFIX] [-summary] <flight.json | ->
  sdplab regret <regret.json | ->
  sdplab feedback <cardinality.json | ->
  sdplab robust [-instances N] [-seed S] [-budget MB] [-skewed] [-bands 1,2,4,8]
             [-healths 1,0.5] [-mode relation|predicate|both] [-topologies chain-8,star-9]
             [-exec=false] [-feedback corpus.jsonl] [-json FILE] [-check]

-parallel runs P optimizations concurrently (harness throughput).`)
}

// newFlagSet is a flag set that reports to stderr and returns parse errors
// instead of exiting, so run decides the exit code.
func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// openArg opens a command's input argument: the named file, or stdin for
// "-", so `curl .../debug/flight.json | sdplab inspect -` works.
func openArg(path string) (io.ReadCloser, error) {
	if path == "-" {
		return io.NopCloser(os.Stdin), nil
	}
	return os.Open(path)
}

// dumpCmd is the subcommand that reads one debug dump with read and prints
// its rendering.
func dumpCmd[D interface{ Render() string }](name, arg string, read func(io.Reader) (D, error)) command {
	return func(args []string, stdout, stderr io.Writer) error {
		fs := newFlagSet(name, stderr)
		if err := fs.Parse(args); err != nil {
			return err
		}
		if fs.NArg() != 1 {
			return fmt.Errorf("usage: sdplab %s <%s | ->", name, arg)
		}
		f, err := openArg(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		dump, err := read(f)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, dump.Render())
		return nil
	}
}

func listCmd(_ []string, stdout, _ io.Writer) error {
	for _, e := range sdpopt.Experiments() {
		fmt.Fprintf(stdout, "%-12s %s\n", e.ID, e.Title)
	}
	return nil
}

// enableMetrics installs the process-wide observer and serves its registry
// on metricsAddr; an empty address leaves telemetry off.
func enableMetrics(metricsAddr string, stderr io.Writer) error {
	if metricsAddr == "" {
		return nil
	}
	ob := sdpopt.NewObserver()
	sdpopt.SetDefaultObserver(ob)
	addr, err := ob.Registry.Serve(metricsAddr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "[metrics, expvar and pprof on http://%s]\n", addr)
	return nil
}

func runCmd(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("run", stderr)
	exp := fs.String("exp", "", "experiment id (see 'sdplab list'), or 'all'")
	instances := fs.Int("instances", 0, "instances per workload (0 = experiment default)")
	seed := fs.Int64("seed", 42, "workload sampling seed")
	budgetMB := fs.Int64("budget", 0, "memory budget in MB (0 = the paper's 1024)")
	skewed := fs.Bool("skewed", false, "use the exponentially-skewed schema")
	parallel := fs.Int("parallel", 1, "concurrent optimizations (keep 1 for timing-faithful overhead tables)")
	metricsAddr := fs.String("metrics", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :8080)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *exp == "" {
		return fmt.Errorf("missing -exp (try 'sdplab list')")
	}
	if err := enableMetrics(*metricsAddr, stderr); err != nil {
		return err
	}
	cfg := sdpopt.ExperimentConfig{
		Instances: *instances,
		Seed:      *seed,
		Budget:    *budgetMB << 20,
		Skewed:    *skewed,
		Workers:   *parallel,
	}
	ids := []string{*exp}
	if *exp == "all" {
		ids = ids[:0]
		for _, e := range sdpopt.Experiments() {
			ids = append(ids, e.ID)
		}
	}
	for _, id := range ids {
		start := time.Now()
		out, err := sdpopt.RunExperiment(id, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Fprintln(stdout, out)
		fmt.Fprintf(stdout, "[%s completed in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
