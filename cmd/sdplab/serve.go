package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sdpopt"
)

// serveCmd runs the optimizer as a service: an HTTP JSON API over a plan
// cache, with admission control and the observability surface on the same
// listener. It blocks until SIGINT/SIGTERM, then drains gracefully.
func serveCmd(args []string, _, stderr io.Writer) error {
	fs := newFlagSet("serve", stderr)
	addr := fs.String("addr", ":8080", "listen address")
	catalogPath := fs.String("catalog", "", "catalog JSON file (empty = the paper's base schema)")
	skewed := fs.Bool("skewed", false, "use the exponentially-skewed schema (ignored with -catalog)")
	cacheEntries := fs.Int("cache", 1024, "plan-cache capacity in entries (0 disables caching)")
	shards := fs.Int("shards", 0, "plan-cache shard count (0 = default 16)")
	maxConcurrent := fs.Int("max-concurrent", 0, "concurrent optimizations (0 = default 8)")
	maxQueue := fs.Int("queue", 0, "admission queue depth before 429 shedding (0 = 2×max-concurrent)")
	budgetMB := fs.Int64("budget", 0, "default memory budget in MB (0 = the paper's 1024)")
	timeout := fs.Duration("timeout", 0, "per-optimization deadline cap (0 = 30s)")
	flightSlowMS := fs.Int64("flight-slow-ms", 0, "flight-recorder slow-trace pinning threshold in ms (0 = default 1000)")
	flightRecent := fs.Int("flight-recent", 0, "flight-recorder recent-trace ring size (0 = default 64)")
	flightNotable := fs.Int("flight-notable", 0, "flight-recorder slow/error/pinned-trace ring size (0 = default 64)")
	shadowRate := fs.Float64("shadow-rate", 0, "fraction of computed serves shadow re-optimized for regret tracking, in [0, 1] (0 disables the shadow layer)")
	shadowHitRate := fs.Float64("shadow-hit-rate", 0, "fraction of cache-hit serves shadowed, in [0, 1] (0 = default 0.01, capped at shadow-rate)")
	shadowWorkers := fs.Int("shadow-workers", 0, "shadow re-optimization worker pool size (0 = default 1)")
	shadowQueue := fs.Int("shadow-queue", 0, "shadow job queue depth before dropping, never blocking serving (0 = default 64)")
	shadowDPRels := fs.Int("shadow-dp-rels", 0, "largest relation count re-optimized with exhaustive DP; bigger queries use full SDP as reference (0 = default 12)")
	shadowDedup := fs.Duration("shadow-dedup", 0, "suppress re-shadowing one query shape within this interval (0 = default 1m, negative disables)")
	shadowPinRatio := fs.Float64("shadow-pin-ratio", 0, "pin shadow traces with at least this served/reference cost ratio into the flight recorder (0 = default 2)")
	execSampleRate := fs.Float64("exec-sample-rate", 0, "fraction of served plans executed over synthetic data for estimate-vs-actual feedback, in [0, 1] (0 disables exec sampling)")
	execMaxRels := fs.Int("exec-max-rels", 0, "largest relation count eligible for exec sampling (0 = default 8)")
	execMaxRows := fs.Int("exec-max-rows", 0, "largest base-relation row count eligible for exec sampling (0 = default 2000)")
	feedbackLog := fs.String("feedback-log", "", "append exec-sampled observations to this JSONL corpus (replay with 'sdplab robust -feedback')")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *flightSlowMS < 0 || *flightRecent < 0 || *flightNotable < 0 {
		return fmt.Errorf("flight-recorder sizes must be non-negative (got -flight-slow-ms %d, -flight-recent %d, -flight-notable %d)",
			*flightSlowMS, *flightRecent, *flightNotable)
	}
	if *shadowRate < 0 || *shadowRate > 1 || *shadowHitRate < 0 || *shadowHitRate > 1 {
		return fmt.Errorf("shadow sampling rates must lie in [0, 1] (got -shadow-rate %g, -shadow-hit-rate %g)", *shadowRate, *shadowHitRate)
	}
	if *shadowWorkers < 0 || *shadowQueue < 0 || *shadowDPRels < 0 || *shadowPinRatio < 0 {
		return fmt.Errorf("shadow sizes must be non-negative (got -shadow-workers %d, -shadow-queue %d, -shadow-dp-rels %d, -shadow-pin-ratio %g)",
			*shadowWorkers, *shadowQueue, *shadowDPRels, *shadowPinRatio)
	}
	if *shadowRate == 0 && (*shadowHitRate != 0 || *shadowWorkers != 0 || *shadowQueue != 0 || *shadowDPRels != 0 || *shadowDedup != 0 || *shadowPinRatio != 0) {
		return fmt.Errorf("shadow flags require -shadow-rate > 0 to enable the shadow layer")
	}
	if *execSampleRate < 0 || *execSampleRate > 1 {
		return fmt.Errorf("-exec-sample-rate must lie in [0, 1] (got %g)", *execSampleRate)
	}
	if *execMaxRels < 0 || *execMaxRows < 0 {
		return fmt.Errorf("exec-sampling bounds must be non-negative (got -exec-max-rels %d, -exec-max-rows %d)", *execMaxRels, *execMaxRows)
	}
	if *execSampleRate == 0 && (*execMaxRels != 0 || *execMaxRows != 0 || *feedbackLog != "") {
		return fmt.Errorf("exec-sampling flags require -exec-sample-rate > 0 to enable the feedback layer")
	}

	cat := sdpopt.PaperSchema()
	switch {
	case *catalogPath != "":
		f, err := os.Open(*catalogPath)
		if err != nil {
			return err
		}
		cat, err = sdpopt.ReadCatalogJSON(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", *catalogPath, err)
		}
	case *skewed:
		cat = sdpopt.SkewedSchema()
	}

	ob := sdpopt.NewObserver()
	sdpopt.SetDefaultObserver(ob)

	var cache *sdpopt.PlanCache
	if *cacheEntries > 0 {
		cache = sdpopt.NewPlanCache(sdpopt.PlanCacheOptions{
			MaxEntries: *cacheEntries,
			Shards:     *shards,
			Obs:        ob,
		})
	}
	var fb *sdpopt.FeedbackOptions
	if *execSampleRate > 0 {
		fb = &sdpopt.FeedbackOptions{
			SampleRate: *execSampleRate,
			MaxRels:    *execMaxRels,
			MaxRows:    *execMaxRows,
			LogPath:    *feedbackLog,
		}
	}
	var shadow *sdpopt.RegretOptions
	if *shadowRate > 0 {
		shadow = &sdpopt.RegretOptions{
			SampleRate:    *shadowRate,
			HitSampleRate: *shadowHitRate,
			Workers:       *shadowWorkers,
			QueueSize:     *shadowQueue,
			MaxDPRels:     *shadowDPRels,
			DedupFor:      *shadowDedup,
			PinRatio:      *shadowPinRatio,
			Budget:        *budgetMB << 20,
		}
	}
	srv, err := sdpopt.NewServer(sdpopt.ServerOptions{
		Cat:           cat,
		Cache:         cache,
		Obs:           ob,
		MaxConcurrent: *maxConcurrent,
		MaxQueue:      *maxQueue,
		Budget:        *budgetMB << 20,
		Timeout:       *timeout,
		Regret:        shadow,
		Feedback:      fb,
		Flight: sdpopt.FlightRecorderOptions{
			Recent:        *flightRecent,
			Notable:       *flightNotable,
			SlowThreshold: time.Duration(*flightSlowMS) * time.Millisecond,
		},
	})
	if err != nil {
		return err
	}
	bound, err := srv.Start(*addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "sdplab serve on http://%s\n", bound)
	fmt.Fprintf(stderr, "  POST /optimize   {\"sql\": \"SELECT * FROM R1 a, R2 b WHERE a.c1 = b.c1\"}\n")
	fmt.Fprintf(stderr, "  GET  /healthz    liveness, admission and cache state\n")
	fmt.Fprintf(stderr, "  GET  /catalog    schema statistics and version\n")
	fmt.Fprintf(stderr, "  GET  /debug      index of every mounted surface: /metrics, traces, routing, regret, cardinality\n")
	fmt.Fprintf(stderr, "  catalog version %s, cache %d entries, techniques %v\n",
		sdpopt.CatalogFingerprint(cat), *cacheEntries, sdpopt.Techniques())

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	fmt.Fprintln(stderr, "sdplab serve: draining...")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	if cache != nil {
		ct := cache.Counts()
		fmt.Fprintf(stderr, "sdplab serve: cache %d entries, %d hits, %d misses, %d dedups (%.0f%% hit rate)\n",
			ct.Entries, ct.Hits, ct.Misses, ct.Dedups, 100*ct.HitRate())
	}
	return nil
}
