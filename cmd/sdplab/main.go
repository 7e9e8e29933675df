// Command sdplab reproduces the paper's experiments.
//
// Usage:
//
//	sdplab list                          # show every experiment id
//	sdplab run -exp tab1.1               # reproduce Table 1.1
//	sdplab run -exp all -instances 100   # full paper-scale reproduction
//	sdplab run -exp tab3.3 -trace out.jsonl -metrics :8080
//	sdplab bench                         # write BENCH_<date>.json
//	sdplab load -addr http://host:8080   # open-loop load against a running serve
//	sdplab inspect flight.json           # render a /debug/flight.json dump
//	sdplab regret regret.json            # render a /debug/regret.json dump
//	sdplab feedback cardinality.json     # render a /debug/cardinality.json dump
//	sdplab robust -check                 # plan quality under cardinality error
//
// Flags tune the sample size (-instances), the RNG seed (-seed), the
// simulated memory budget in MB (-budget), and the skewed-schema variant
// (-skewed). -trace streams optimizer events to a JSONL file (summarize
// with sdptrace); -metrics serves Prometheus /metrics, expvar and pprof
// for the lifetime of the run. `sdplab bench` additionally takes
// -cpuprofile and -memprofile to write offline pprof profiles of the
// whole bench sweep.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"sdpopt"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "list":
		for _, e := range sdpopt.Experiments() {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
	case "run":
		if err := runCmd(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "sdplab:", err)
			os.Exit(1)
		}
	case "bench":
		if err := benchCmd(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "sdplab:", err)
			os.Exit(1)
		}
	case "serve":
		if err := serveCmd(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "sdplab:", err)
			os.Exit(1)
		}
	case "load":
		if err := loadCmd(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "sdplab:", err)
			os.Exit(1)
		}
	case "inspect":
		if err := inspectCmd(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "sdplab:", err)
			os.Exit(1)
		}
	case "regret":
		if err := regretCmd(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "sdplab:", err)
			os.Exit(1)
		}
	case "feedback":
		if err := feedbackCmd(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "sdplab:", err)
			os.Exit(1)
		}
	case "robust":
		if err := robustCmd(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "sdplab:", err)
			os.Exit(1)
		}
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  sdplab list
  sdplab run -exp <id|all> [-instances N] [-seed S] [-budget MB] [-skewed] [-parallel P]
             [-workers W] [-cache N] [-trace FILE.jsonl] [-metrics ADDR]
  sdplab bench [-instances N] [-seed S] [-budget MB] [-skewed] [-parallel P] [-workers W]
             [-cache N] [-out DIR]
  sdplab serve [-addr ADDR] [-catalog FILE.json] [-skewed] [-workers W] [-cache N] [-shards N]
             [-max-concurrent N] [-queue N] [-budget MB] [-timeout D] [-trace FILE.jsonl]
             [-flight-slow-ms MS] [-flight-recent N] [-flight-notable N]
             [-shadow-rate F] [-shadow-hit-rate F] [-shadow-workers N] [-shadow-queue N]
             [-shadow-dp-rels N] [-shadow-dedup D] [-shadow-pin-ratio F]
             [-exec-sample-rate F] [-exec-max-rels N] [-exec-max-rows N] [-feedback-log FILE.jsonl]
  sdplab load  [-addr URL] [-qps F] [-duration D] [-warmup D] [-arrivals poisson|constant]
             [-technique T] [-timeout-ms MS] [-mix SPEC] [-pool N] [-seed S] [-use-cache]
             [-json FILE] [-max-shed-rate F] [-max-5xx N] [-require-routes T1,T2]
  sdplab inspect [-top N] [-trace PREFIX] [-summary] <flight.json | ->
  sdplab regret <regret.json | ->
  sdplab feedback <cardinality.json | ->
  sdplab robust [-instances N] [-seed S] [-budget MB] [-skewed] [-bands 1,2,4,8]
             [-healths 1,0.5] [-mode relation|predicate|both] [-topologies chain-8,star-9]
             [-exec=false] [-feedback corpus.jsonl] [-json FILE] [-check]

-parallel runs P optimizations concurrently (harness throughput); -workers
splits each optimization's enumeration across W cores (plan-identical,
latency only).`)
}

// enableObservability installs the process-wide observer from the -trace
// and -metrics flags. It returns a flush function for the trace sink.
func enableObservability(tracePath, metricsAddr string) (func() error, error) {
	flush := func() error { return nil }
	if tracePath == "" && metricsAddr == "" {
		return flush, nil
	}
	var sinks []sdpopt.TraceSink
	if tracePath != "" {
		sink, err := sdpopt.OpenTraceJSONL(tracePath)
		if err != nil {
			return nil, err
		}
		sinks = append(sinks, sink)
		flush = sink.Close
	}
	ob := sdpopt.NewObserver(sinks...)
	sdpopt.SetDefaultObserver(ob)
	if metricsAddr != "" {
		addr, err := ob.Registry.Serve(metricsAddr)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "[metrics, expvar and pprof on http://%s]\n", addr)
	}
	return flush, nil
}

func runCmd(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	exp := fs.String("exp", "", "experiment id (see 'sdplab list'), or 'all'")
	instances := fs.Int("instances", 0, "instances per workload (0 = experiment default)")
	seed := fs.Int64("seed", 42, "workload sampling seed")
	budgetMB := fs.Int64("budget", 0, "memory budget in MB (0 = the paper's 1024)")
	skewed := fs.Bool("skewed", false, "use the exponentially-skewed schema")
	parallel := fs.Int("parallel", 1, "concurrent optimizations (keep 1 for timing-faithful overhead tables)")
	workers := fs.Int("workers", 1, "enumeration workers per optimization (>1 = parallel enumeration; plan-identical)")
	cacheEntries := fs.Int("cache", 0, "route optimizations through a plan cache of this capacity (0 = off; skews timing tables)")
	tracePath := fs.String("trace", "", "stream optimizer events to this JSONL file")
	metricsAddr := fs.String("metrics", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :8080)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *exp == "" {
		return fmt.Errorf("missing -exp (try 'sdplab list')")
	}
	flush, err := enableObservability(*tracePath, *metricsAddr)
	if err != nil {
		return err
	}
	cfg := sdpopt.ExperimentConfig{
		Instances:   *instances,
		Seed:        *seed,
		Budget:      *budgetMB << 20,
		Skewed:      *skewed,
		Workers:     *parallel,
		EnumWorkers: *workers,
	}
	if *cacheEntries > 0 {
		cfg.Cache = sdpopt.NewPlanCache(sdpopt.PlanCacheOptions{MaxEntries: *cacheEntries, Obs: sdpopt.DefaultObserver()})
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
			flush()
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Println(out)
		fmt.Printf("[%s completed in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	if cfg.Cache != nil {
		ct := cfg.Cache.Counts()
		fmt.Fprintf(os.Stderr, "[plan cache: %d entries, %d hits, %d misses, %d evictions, %.0f%% hit rate]\n",
			ct.Entries, ct.Hits, ct.Misses, ct.Evictions, 100*ct.HitRate())
	}
	if err := flush(); err != nil {
		return err
	}
	if *tracePath != "" {
		fmt.Fprintf(os.Stderr, "[trace written to %s; summarize with: sdptrace %s]\n", *tracePath, *tracePath)
	}
	return nil
}

func benchCmd(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	instances := fs.Int("instances", 0, "instances per workload (0 = bench default)")
	seed := fs.Int64("seed", 42, "workload sampling seed")
	budgetMB := fs.Int64("budget", 0, "memory budget in MB (0 = the paper's 1024)")
	skewed := fs.Bool("skewed", false, "use the exponentially-skewed schema")
	parallel := fs.Int("parallel", 1, "concurrent optimizations")
	workers := fs.Int("workers", 1, "enumeration workers per optimization (>1 = parallel enumeration; plan-identical)")
	cacheEntries := fs.Int("cache", 0, "route batch optimizations through a plan cache of this capacity (0 = off)")
	out := fs.String("out", ".", "directory for the BENCH_<date>.json report")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the bench run to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile (after the run) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sdplab: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // capture settled live-heap, not transient garbage
			if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "sdplab: memprofile:", err)
			}
		}()
	}
	cfg := sdpopt.ExperimentConfig{
		Instances:   *instances,
		Seed:        *seed,
		Budget:      *budgetMB << 20,
		Skewed:      *skewed,
		Workers:     *parallel,
		EnumWorkers: *workers,
	}
	if *cacheEntries > 0 {
		cfg.Cache = sdpopt.NewPlanCache(sdpopt.PlanCacheOptions{MaxEntries: *cacheEntries})
	}
	start := time.Now()
	r, err := sdpopt.RunBench(cfg, time.Now())
	if err != nil {
		return err
	}
	path, err := r.WriteFile(*out)
	if err != nil {
		return err
	}
	fmt.Printf("[bench completed in %v, report: %s]\n", time.Since(start).Round(time.Millisecond), path)
	return r.WriteJSON(os.Stdout)
}
