// Package server exposes the optimizer as a service: an HTTP JSON API that
// accepts SQL (or an explicit query-JSON shape), runs one of the tech
// table's techniques (or lets the router pick one), and serves repeated
// query shapes from a plan cache keyed by canonical fingerprint.
//
// The serving layer adds the production concerns the library deliberately
// leaves out:
//
//   - admission control — a semaphore bounds concurrently executing
//     optimizations, a queue-depth limit bounds waiting ones, and overflow
//     is shed with 429 instead of letting join enumeration (whose memory
//     and CPU appetite grows super-polynomially with query size) pile up;
//   - deadlines — a per-request timeout becomes a context deadline threaded
//     into the engines' cancellation path, mapped to 504, distinct from the
//     paper's memory-budget abort, which is a well-defined optimizer
//     outcome and maps to 200 with budget_exceeded set; cache-filling
//     computes are shared property and run detached from the triggering
//     request, under the server-wide timeout and default budget;
//   - caching — results are keyed by fingerprint × technique × catalog
//     version (see internal/plancache), so only the first arrival of a
//     query shape pays for enumeration; plans are stored in the canonical
//     query frame and read through each requester's canonical relabeling,
//     so a hit from an equivalently-shaped but differently-ordered spelling
//     still names the right relations without copying the cached tree;
//   - observability — requests, sheds, in-flight and queue gauges, and a
//     latency histogram split by cache source flow through internal/obs and
//     are exposed on the same listener at /metrics. Every request also
//     carries a request-scoped span tree (internal/obs/span) into the
//     engines; a flight recorder retains recent and slow/error traces at
//     /debug/requests (HTML) and /debug/flight.json (machine-readable), and
//     the latency histograms attach trace-ID exemplars so an outlier bucket
//     links straight back to the request that landed in it.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"sdpopt/internal/catalog"
	"sdpopt/internal/dp"
	"sdpopt/internal/feedback"
	"sdpopt/internal/memo"
	"sdpopt/internal/obs"
	"sdpopt/internal/obs/regret"
	"sdpopt/internal/obs/span"
	"sdpopt/internal/parse"
	"sdpopt/internal/plan"
	"sdpopt/internal/plancache"
	"sdpopt/internal/query"
	"sdpopt/internal/route"
	"sdpopt/internal/tech"
)

// maxBodyBytes bounds /optimize request bodies; query descriptions are
// small, so anything larger is a client error, not a big query.
const maxBodyBytes = 1 << 20

// Connection deadlines of a Started server: a client that never finishes
// its request headers, or keeps an idle connection open, is dropped. There
// is no ReadTimeout or WriteTimeout on purpose — either would also bound the
// time between reading the body and writing the answer, and cut a legitimate
// multi-second optimization; Options.Timeout bounds that.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// Options configures a Server.
type Options struct {
	// Cat is the schema the server optimizes against. Required.
	Cat *catalog.Catalog
	// Cache, if non-nil, serves repeated fingerprints without
	// re-optimizing.
	Cache *plancache.Cache
	// Obs receives server and cache telemetry; when set, its registry is
	// also mounted on the server's listener (/metrics, /debug/...).
	Obs *obs.Observer
	// MaxConcurrent bounds optimizations executing at once (default 8).
	MaxConcurrent int
	// MaxQueue bounds requests waiting for an execution slot (default
	// 2×MaxConcurrent); beyond it requests are shed with 429.
	MaxQueue int
	// Budget is the default memory-feasibility budget per optimization
	// (default memo.DefaultBudget, the paper's 1 GB); requests may lower
	// or raise it via budget_mb. Cache-filling computes always run under
	// this default — a budget_mb override routes the request down the
	// uncached path (see OptimizeRequest.BudgetMB).
	Budget int64
	// Timeout caps every optimization's wall time (default 30s); requests
	// may shorten it via timeout_ms but never exceed it. The shortened
	// deadline applies to uncached optimizations only: a cache-filling
	// compute is shared property and always runs under the full Timeout,
	// detached from the request that happened to trigger it.
	Timeout time.Duration
	// Flight sizes the flight recorder (ring capacities and slow-trace
	// pinning threshold); the zero value gives the span-package defaults
	// (64 recent + 64 notable, 1s). The recorder is always on — span
	// tracing costs a few allocations per request, not per plan — and is
	// served at /debug/requests and /debug/flight.json.
	Flight span.RecorderOptions
	// Regret, when non-nil, enables the sampling shadow optimizer: a
	// fraction of served plans is re-optimized in the background with a
	// reference technique and the cost ratios are aggregated at
	// /debug/regret (see internal/obs/regret). The server fills in the
	// Optimize and OnSample hooks and, when unset, Obs and Flight; every
	// other knob (rates, pool sizing, dedup window) is the caller's.
	Regret *regret.Options
	// Route configures the SLO-aware technique router behind
	// technique:"auto" (see internal/route); the zero value selects the
	// router defaults. The router is always constructed — explicit
	// requests feed its latency profiles too, and /debug/routes is always
	// served — and when Regret is enabled its sample stream is wired into
	// the router's regret-feedback loop.
	Route route.Options
	// Feedback, when non-nil, enables the cardinality-feedback ledger:
	// estimate-vs-actual telemetry aggregated per catalog object, served at
	// /debug/cardinality, and fed back into the router's staleness
	// demotion. Execution sampling — the part that actually produces
	// actuals — is separately gated on FeedbackOptions.SampleRate.
	Feedback *FeedbackOptions
}

// FeedbackOptions wires the cardinality-feedback subsystem (see
// internal/feedback) into a server. The ledger and its debug surface are
// always constructed; the exec-sampling path that feeds them runs only at
// SampleRate > 0 — executing plans, even over scaled-down synthetic data,
// is orders of magnitude more work than optimizing them.
type FeedbackOptions struct {
	// Ledger sizes the rolling windows and the staleness threshold (zero
	// value: the feedback package defaults — window 64, min 3 observations,
	// stale at score 0.5). Obs is filled in from the server's observer.
	Ledger feedback.LedgerOptions
	// SampleRate is the fraction of successfully served plans executed
	// over synthetic data off the measured path, in [0, 1]. Default 0:
	// exec sampling is strictly opt-in.
	SampleRate float64
	// MaxRels and MaxRows bound sampling eligibility (defaults 8 relations
	// and 2000 base rows): beyond either, a query's plan is never executed.
	MaxRels int
	MaxRows int
	// LogPath, when set, appends every observation to a JSONL corpus —
	// the replayable record that internal/ce's empirical-error mode and
	// `sdplab robust -feedback` consume.
	LogPath string
}

// Server is the optimizer-as-a-service HTTP layer. Construct with New.
type Server struct {
	cat        *catalog.Catalog
	catVersion string
	cache      *plancache.Cache
	ob         *obs.Observer
	budget     int64
	timeout    time.Duration
	maxQueue   int
	// runEngine runs one optimization by technique name: tech.Run, set by
	// New. A test may install an engine whose timing it controls.
	runEngine func(ctx context.Context, name string, q *query.Query, o tech.Options) (*plan.Plan, dp.Stats, error)

	flight  *span.Recorder
	shadow  *regret.Shadow
	router  *route.Router
	ledger  *feedback.Ledger
	sampler *feedback.Sampler
	corpus  *feedback.CorpusWriter

	sem      chan struct{} // executing-slot semaphore
	pending  atomic.Int64  // executing + queued
	inFlight atomic.Int64

	gInFlight *obs.Gauge
	gQueue    *obs.Gauge
	cShed     *obs.Counter

	httpSrv *http.Server
	// readHeaderTimeout is the constant of that name; a field so that a test
	// can wait out a shorter one.
	readHeaderTimeout time.Duration
}

// New validates opts and builds a server.
func New(opts Options) (*Server, error) {
	if opts.Cat == nil {
		return nil, errors.New("server: Options.Cat is required")
	}
	if opts.MaxConcurrent <= 0 {
		opts.MaxConcurrent = 8
	}
	if opts.MaxQueue <= 0 {
		opts.MaxQueue = 2 * opts.MaxConcurrent
	}
	if opts.Budget == 0 {
		opts.Budget = memo.DefaultBudget
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 30 * time.Second
	}
	s := &Server{
		cat:        opts.Cat,
		catVersion: opts.Cat.Fingerprint(),
		cache:      opts.Cache,
		ob:         opts.Obs,
		budget:     opts.Budget,
		timeout:    opts.Timeout,
		maxQueue:   opts.MaxQueue,
		runEngine:  tech.Run,
		flight:     span.NewRecorder(opts.Flight),
		router:     route.New(opts.Route),
		sem:        make(chan struct{}, opts.MaxConcurrent),

		readHeaderTimeout: readHeaderTimeout,
	}
	if s.ob != nil {
		s.gInFlight = s.ob.Gauge(obs.MServerInFlight)
		s.gQueue = s.ob.Gauge(obs.MServerQueue)
		s.cShed = s.ob.Counter(obs.MServerShed)
		obs.RegisterBuildInfo(s.ob.Registry)
	}
	if opts.Regret != nil {
		ro := *opts.Regret
		ro.Optimize = tech.Run
		if ro.Obs == nil {
			ro.Obs = s.ob
		}
		if ro.Flight == nil {
			ro.Flight = s.flight
		}
		// The router rides the shadow's sample stream: every measured
		// ratio updates the matching (tech, shape, band) regret EWMA, so a
		// cheap route whose ρ degrades is demoted without any extra
		// shadow work.
		ro.OnSample = s.router.NoteRegret
		// The catalog version computed above keys the shadow's dedup, so no
		// sampled serve re-hashes the catalog on the request path.
		shadow, err := regret.New(ro, s.catVersion)
		if err != nil {
			return nil, err
		}
		s.shadow = shadow
	}
	if opts.Feedback != nil {
		fo := *opts.Feedback
		lo := fo.Ledger
		if lo.Obs == nil {
			lo.Obs = s.ob
		}
		s.ledger = feedback.NewLedger(lo)
		if fo.LogPath != "" {
			cw, err := feedback.OpenCorpus(fo.LogPath)
			if err != nil {
				return nil, fmt.Errorf("server: %w", err)
			}
			s.corpus = cw
		}
		if fo.SampleRate > 0 {
			sampler, err := feedback.NewSampler(feedback.SamplerOptions{
				Ledger:  s.ledger,
				Corpus:  s.corpus,
				Obs:     s.ob,
				Rate:    fo.SampleRate,
				MaxRels: fo.MaxRels,
				MaxRows: fo.MaxRows,
			}, s.catVersion)
			if err != nil {
				return nil, err
			}
			s.sampler = sampler
		}
	}
	return s, nil
}

// OptimizeRequest is the POST /optimize body. Exactly one of SQL and Query
// must be set.
type OptimizeRequest struct {
	// SQL is a SELECT over catalog relations (see internal/parse for the
	// accepted dialect).
	SQL string `json:"sql,omitempty"`
	// Query is the explicit join-graph shape, for clients that already
	// hold a structural representation.
	Query *QuerySpec `json:"query,omitempty"`
	// Technique selects the optimizer: a tech table name, or "auto" to let
	// the router pick (see RequestTechniques); empty means "sdp".
	Technique string `json:"technique,omitempty"`
	// BudgetMB overrides the server's memory-feasibility budget, in MB.
	// Overriding takes the uncached path (no lookup, no fill): cached
	// entries are always computed under the server's default budget, so
	// identical requests get identical outcomes regardless of which budget
	// an earlier caller happened to use.
	BudgetMB int64 `json:"budget_mb,omitempty"`
	// TimeoutMS shortens the server's optimization deadline, in ms. The
	// shortened deadline binds uncached optimizations only; a request that
	// triggers or joins a shared cache-filling compute waits for that
	// compute, which runs under the server-wide timeout — one caller's
	// short deadline never poisons the entry served to coalesced waiters.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// NoCache bypasses the plan cache for this request (no lookup, no
	// fill).
	NoCache bool `json:"no_cache,omitempty"`
	// Explain includes the full EXPLAIN rendering in the response.
	Explain bool `json:"explain,omitempty"`
}

// requestTechniques lists what an /optimize request's "technique" field
// accepts besides "" (which selects sdp): "auto", which asks the router to
// pick per request (see internal/route), and every tech table entry.
var requestTechniques = append([]string{"auto"}, tech.Names()...)

// RequestTechniques lists what an /optimize request's "technique" field
// accepts: "auto" plus tech.Names().
func RequestTechniques() []string { return slices.Clone(requestTechniques) }

// QuerySpec is the query-JSON shape: catalog relation indexes joined by
// equi-join predicates over query-local indexes, plus optional filters and
// ORDER BY — a direct serialization of query.New's arguments.
type QuerySpec struct {
	Rels    []int        `json:"rels"`
	Preds   []PredSpec   `json:"preds"`
	Filters []FilterSpec `json:"filters,omitempty"`
	OrderBy *OrderSpec   `json:"order_by,omitempty"`
}

// PredSpec is one equi-join predicate between query-local relations.
type PredSpec struct {
	LeftRel  int `json:"left_rel"`
	LeftCol  int `json:"left_col"`
	RightRel int `json:"right_rel"`
	RightCol int `json:"right_col"`
}

// FilterSpec is one local range selection "col < bound".
type FilterSpec struct {
	Rel   int   `json:"rel"`
	Col   int   `json:"col"`
	Bound int64 `json:"bound"`
}

// OrderSpec requests sorted output on one relation column.
type OrderSpec struct {
	Rel int `json:"rel"`
	Col int `json:"col"`
}

// StatsJSON is the optimization-overhead block of an OptimizeResponse.
type StatsJSON struct {
	ElapsedNS      int64   `json:"elapsed_ns"`
	PlansCosted    int64   `json:"plans_costed"`
	PeakSimMB      float64 `json:"peak_sim_mb"`
	ClassesCreated int64   `json:"classes_created"`
}

// OptimizeResponse is the POST /optimize reply.
type OptimizeResponse struct {
	// Technique is the engine that actually ran — for technique:"auto"
	// requests, the router's (possibly demoted) choice.
	Technique string `json:"technique"`
	// RouteReason explains how Technique was chosen: "explicit" for
	// requests that named an engine, or one of the router's auto:*
	// reasons (fast path, default, heavy tail, regret promotion, deadline
	// downgrade, mid-flight demotion).
	RouteReason    string `json:"route_reason,omitempty"`
	Fingerprint    string `json:"fingerprint"`
	CatalogVersion string `json:"catalog_version"`
	// Source reports how the result was produced: "hit", "dedup", "miss",
	// or "uncached" (cache bypassed or absent).
	Source  string   `json:"source"`
	Cached  bool     `json:"cached"`
	Rels    []string `json:"rels,omitempty"`
	Cost    float64  `json:"cost,omitempty"`
	Shape   string   `json:"shape,omitempty"`
	Explain string   `json:"explain,omitempty"`
	// BudgetExceeded marks the paper's infeasible ("*") outcome: the
	// optimization exceeded its memory budget. The request itself
	// succeeded (HTTP 200) — infeasibility is a measured result.
	BudgetExceeded bool       `json:"budget_exceeded,omitempty"`
	Error          string     `json:"error,omitempty"`
	Stats          *StatsJSON `json:"stats,omitempty"`
	ServerNS       int64      `json:"server_ns"`
}

// Handler returns the server's HTTP routes: POST /optimize, GET /healthz,
// GET /catalog, the flight recorder (/debug/requests, /debug/flight.json —
// always on), the routing page, the regret and cardinality pages when those
// layers are configured, the metrics surface (/metrics, /debug/vars,
// /debug/pprof/) when an observer is, and the /debug index of all of them.
func (s *Server) Handler() http.Handler {
	mux := obs.NewDebugMux()
	mux.HandleFunc("/optimize", s.recoverOptimize(s.handleOptimize))
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/catalog", s.handleCatalog)
	mux.Mount("/debug/requests", "flight recorder: recent and slow/error request traces", s.flight.RequestsHandler(s.registry()))
	mux.Mount("/debug/flight.json", "flight recorder, machine-readable", s.flight.FlightHandler())
	obs.MountPage(mux, "/debug/routes", "technique routing", s.router.Snapshot)
	if s.shadow != nil {
		obs.MountPage(mux, "/debug/regret", "plan-quality regret", s.shadow.Snapshot)
	}
	if s.ledger != nil {
		obs.MountPage(mux, "/debug/cardinality", "cardinality feedback", func() *feedback.Dump { return s.ledger.Snapshot(s.sampler) })
	}
	if reg := s.registry(); reg != nil {
		oh := reg.Handler()
		mux.Mount("/metrics", "Prometheus metrics with trace-ID exemplars", oh)
		mux.Mount("/debug/pprof/", "Go runtime profiles", oh)
		mux.Mount("/debug/vars", "expvar", oh)
	}
	return mux
}

// registry returns the observer's metrics registry, or nil without one.
func (s *Server) registry() *obs.Registry {
	if s.ob == nil {
		return nil
	}
	return s.ob.Registry
}

// Flight returns the server's flight recorder.
func (s *Server) Flight() *span.Recorder { return s.flight }

// Regret returns the server's shadow optimizer, or nil when regret
// measurement is not configured.
func (s *Server) Regret() *regret.Shadow { return s.shadow }

// Router returns the server's technique router (always non-nil).
func (s *Server) Router() *route.Router { return s.router }

// FeedbackLedger returns the cardinality-feedback ledger, or nil when
// feedback is not configured.
func (s *Server) FeedbackLedger() *feedback.Ledger { return s.ledger }

// FeedbackSampler returns the exec sampler, or nil when exec sampling is
// not enabled.
func (s *Server) FeedbackSampler() *feedback.Sampler { return s.sampler }

// Start listens on addr (":0" for an ephemeral port) and serves in a
// background goroutine, returning the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.httpSrv = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: s.readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	go func() { _ = s.httpSrv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Shutdown gracefully stops a Started server: the listener closes
// immediately, in-flight requests run to completion or until ctx expires.
// The off-path layers then close, the feedback corpus last, so observations
// of requests completing during the grace period reach the corpus file.
func (s *Server) Shutdown(ctx context.Context) error {
	var err error
	if s.httpSrv != nil {
		err = s.httpSrv.Shutdown(ctx)
	}
	// The shadow pool stops after the listener drains: requests completing
	// during the grace period may still offer samples, and Close discards
	// queued shadow work rather than delaying shutdown on it.
	s.shadow.Close()
	// Same for the feedback sampler; its Close also flushes the corpus, so
	// closing the underlying file afterwards loses nothing.
	s.sampler.Close()
	if cerr := s.corpus.Close(); err == nil {
		err = cerr
	}
	return err
}

// InFlight returns the number of optimizations currently executing.
func (s *Server) InFlight() int { return int(s.inFlight.Load()) }

// Queued returns the number of admitted requests waiting for a slot.
func (s *Server) Queued() int {
	q := int(s.pending.Load()) - int(s.inFlight.Load())
	if q < 0 {
		q = 0
	}
	return q
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, r, http.StatusOK, map[string]any{
		"status":          "ok",
		"catalog_version": s.catVersion,
		"in_flight":       s.InFlight(),
		"queued":          s.Queued(),
		"cache_entries":   s.cache.Len(),
		"techniques":      RequestTechniques(),
	})
}

func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, r, http.StatusOK, map[string]any{
		"version": s.catVersion,
		"catalog": s.cat,
	})
}

// recoverOptimize turns a panic in the /optimize handler — an engine bug,
// say — into a 500 instead of a dead process. If the request span the
// handler stored in its writer is still open, it is closed with the panic as
// its error, which files the trace in the flight recorder's notable ring. A
// panic after the response has started — in the shadow or sampler offer
// that follows the flush — is only logged: the client already holds its
// answer, and a second document would corrupt it.
func (s *Server) recoverOptimize(h func(*optimizeWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ow := &optimizeWriter{ResponseWriter: w}
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if v == http.ErrAbortHandler {
				panic(v)
			}
			msg := fmt.Sprintf("panic: %v", v)
			if ow.written {
				log.Printf("server: %s %s after the response was written: %s", r.Method, r.URL.Path, msg)
				return
			}
			if root := ow.root; root != nil {
				if _, _, done := root.Trace().Status(); !done {
					root.SetError(msg)
					s.flight.Finish(root, http.StatusInternalServerError)
				}
			}
			s.failf(w, r, http.StatusInternalServerError, "%s", msg)
		}()
		h(ow, r)
	}
}

// optimizeWriter is the ResponseWriter of one /optimize request, shared
// with recoverOptimize: it carries the request span the handler opened and
// records whether the response has started.
type optimizeWriter struct {
	http.ResponseWriter
	root    *span.Span
	written bool
}

func (w *optimizeWriter) WriteHeader(code int) {
	w.written = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *optimizeWriter) Write(b []byte) (int, error) {
	w.written = true
	return w.ResponseWriter.Write(b)
}

// Flush flushes the underlying writer when it supports flushing.
func (w *optimizeWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// handleOptimize serves POST /optimize; it stores the request span it opens
// in w for recoverOptimize.
func (s *Server) handleOptimize(w *optimizeWriter, r *http.Request) {
	started := time.Now()
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.failf(w, r, http.StatusMethodNotAllowed, "POST required")
		return
	}
	// The underlying writer: MaxBytesReader tells it to close the
	// connection after an oversized body, through an interface the
	// wrapper does not carry.
	req, q, err := s.decodeOptimize(http.MaxBytesReader(w.ResponseWriter, r.Body, maxBodyBytes))
	if err != nil {
		s.failf(w, r, http.StatusBadRequest, "%v", err)
		return
	}

	// Tracing: every valid optimize request gets a span tree in the flight
	// recorder. A well-formed W3C traceparent header adopts the caller's
	// trace ID; our ID (theirs or a fresh one) is echoed back either way so
	// the client can fish the trace out of /debug/flight.json later.
	root := span.FromTraceparent(r.Header.Get("traceparent"), "request")
	w.root = root
	w.Header().Set("traceparent", root.Trace().Traceparent())
	s.flight.Start(root)

	// Admission: bound executing + queued; shed the rest before they tie
	// up a connection waiting for a slot that is many optimizations away.
	pending := s.pending.Add(1)
	if pending > int64(cap(s.sem)+s.maxQueue) {
		s.pending.Add(-1)
		s.cShed.Add(1)
		// No queue.wait span and no queue-histogram sample: a shed request
		// never waited, and folding its zero into the wait distribution
		// would understate the very congestion that shed it.
		root.SetError("shed: server saturated")
		s.flight.Finish(root, http.StatusTooManyRequests)
		w.Header().Set("Retry-After", "1")
		s.failf(w, r, http.StatusTooManyRequests, "server saturated: %d executing, %d queued", cap(s.sem), s.maxQueue)
		return
	}
	s.gQueue.Set(s.pending.Load() - s.inFlight.Load())
	queued := time.Now()
	select {
	case s.sem <- struct{}{}:
	case <-r.Context().Done():
		s.pending.Add(-1)
		wait := time.Since(queued)
		root.ChildAt("queue.wait", queued, wait).SetError("client gone")
		s.observeQueueWait(wait, root.TraceID())
		root.SetError("client gone while queued")
		s.flight.Finish(root, statusClientGone)
		s.failf(w, r, statusClientGone, "client gone while queued")
		return
	}
	wait := time.Since(queued)
	root.ChildAt("queue.wait", queued, wait)
	s.observeQueueWait(wait, root.TraceID())
	s.gInFlight.Set(s.inFlight.Add(1))
	s.gQueue.Set(s.pending.Load() - s.inFlight.Load())
	defer func() {
		<-s.sem
		s.gInFlight.Set(s.inFlight.Add(-1))
		s.pending.Add(-1)
		s.gQueue.Set(s.pending.Load() - s.inFlight.Load())
	}()

	// Deadline: the request may shorten the server cap, never exceed it.
	timeout := s.timeout
	if req.TimeoutMS > 0 {
		if d := time.Duration(req.TimeoutMS) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	ctx = span.NewContext(ctx, root)

	budget := s.budget
	if req.BudgetMB > 0 {
		budget = req.BudgetMB << 20
	}

	// Routing: explicit techniques pass straight through; "auto" asks the
	// router to pick from (relation count, topology, remaining deadline)
	// against its live latency and regret profiles. The decision runs
	// after admission so the remaining deadline it sees already accounts
	// for queue wait.
	rels := q.NumRelations()
	topo := q.Shape()
	technique := req.Technique
	if technique == "" {
		technique = tech.SDP
	}
	routeReason := route.ReasonExplicit
	var reserve time.Duration
	if req.Technique == "auto" {
		remaining := time.Duration(0)
		if dl, ok := ctx.Deadline(); ok {
			remaining = time.Until(dl)
		}
		// The feedback coupling: the ledger's worst staleness over this
		// query's relations and predicates biases the router away from the
		// exhaustive-DP tier when the estimates it would exploit are known
		// to be lying. A few read-locked map lookups — cheap enough for the
		// request path.
		staleness := 0.0
		if s.ledger != nil {
			staleness = s.ledger.StalenessFor(feedback.QueryObjects(q))
		}
		dec := s.router.DecideObserved(rels, topo, remaining, staleness)
		technique, routeReason, reserve = dec.Technique, dec.Reason, dec.Reserve
	}
	routedTech := technique

	// Canonicalization (and the fingerprint digested from it) runs here,
	// inside the admission slot, so its bounded labeling search counts
	// against MaxConcurrent like any other per-request CPU work.
	cs := root.Child("canonicalize")
	cn := q.Canon()
	cs.SetAttr("truncated", cn.Truncated)
	cs.Finish()
	if cn.Truncated {
		if c := s.ob.Counter(obs.MServerCanonTruncated); c != nil {
			c.Add(1)
		}
	}
	resp := &OptimizeResponse{
		Technique:      technique,
		Fingerprint:    cn.Fingerprint,
		CatalogVersion: s.catVersion,
		Source:         "uncached",
	}

	var demoted string
	var best *plan.Plan
	var frame *query.Canon
	var stats dp.Stats
	var src string
	if req.Technique == "auto" {
		best, frame, stats, src, err, demoted = s.runRouted(ctx, technique, q, budget, req, reserve)
		if demoted != "" {
			// The chosen engine's slice expired (or it aborted on budget)
			// and greedy answered instead. The inflated lower-bound
			// observation ratchets the engine's latency EWMA up so
			// repeated demotions turn into pre-flight downgrades.
			technique, routeReason = tech.Greedy, demoted
			resp.Technique = technique
			s.router.Observe(routedTech, topo, route.Band(rels), timeout-reserve, true)
			if c := s.ob.Counter(obs.MRouteFallbacks); c != nil {
				c.Add(1)
			}
		}
	} else {
		best, frame, stats, src, err = s.run(ctx, technique, q, budget, req)
	}
	resp.Source = src
	resp.RouteReason = routeReason
	s.router.Count(technique, routeReason)
	if c := s.ob.Counter(obs.Label(obs.MRouteDecisions, "route", technique, "reason", routeReason, "source", src)); c != nil {
		c.Add(1)
	}
	if err == nil && (src == "uncached" || src == plancache.Miss.String()) {
		// Teach the router the measured engine latency. Hits and dedup
		// joins are excluded: they measure cache performance, and the fill
		// that computed them already reported its own elapsed time.
		s.router.Observe(technique, topo, route.Band(rels), stats.Elapsed, false)
	}

	code := http.StatusOK
	switch {
	case err == nil:
		resp.Cached = src == plancache.Hit.String() || src == plancache.Dedup.String()
		// Cost and Shape are read from the plan as run returned it, in its
		// frame: relabeling never changes the tree's structure, its costs or
		// the catalog relation at a leaf. EXPLAIN prints order classes,
		// which are frame-local, so it alone needs the requester's tree.
		resp.Cost = best.Cost
		resp.Shape = best.Shape(leafNames(q, frame))
		if req.Explain {
			resp.Explain = inFrame(best, frame).Explain(leafNames(q, nil))
		}
		resp.Rels = make([]string, len(q.Rels))
		for i := range resp.Rels {
			resp.Rels[i] = q.Relation(i).Name
		}
	case errors.Is(err, memo.ErrBudget):
		// The paper's infeasible outcome: a valid measurement, not a
		// serving failure.
		resp.BudgetExceeded = true
		resp.Error = err.Error()
	case errors.Is(err, dp.ErrCanceled):
		code = http.StatusGatewayTimeout
		resp.Error = err.Error()
	default:
		code = http.StatusInternalServerError
		resp.Error = err.Error()
	}
	resp.Stats = &StatsJSON{
		ElapsedNS:      stats.Elapsed.Nanoseconds(),
		PlansCosted:    stats.PlansCosted,
		PeakSimMB:      float64(stats.Memo.PeakSimBytes) / (1 << 20),
		ClassesCreated: stats.Memo.ClassesCreated,
	}
	resp.ServerNS = time.Since(started).Nanoseconds()
	root.SetAttr("technique", technique)
	root.SetAttr("route_reason", routeReason)
	root.SetAttr("source", src)
	root.SetAttr("fingerprint", resp.Fingerprint)
	if err != nil {
		root.SetError(err.Error())
	}
	if h := s.ob.Histogram(obs.Label(obs.MServerSeconds, "source", src), obs.SecondsBuckets); h != nil {
		// The exemplar ties an extreme latency bucket to this trace ID, so
		// the slow request behind a histogram outlier is one flight-recorder
		// lookup away.
		h.ObserveExemplar(time.Since(started).Seconds(), root.TraceID())
	}
	if demoted != "" {
		// A demotion is exactly the trace worth keeping: pin it into the
		// recorder's notable ring so the engine run that blew its slice
		// survives fast traffic.
		s.flight.Pin(root, code)
	} else {
		s.flight.Finish(root, code)
	}
	s.writeJSON(w, r, code, resp)
	// The shadow offer runs after the response bytes have left the server —
	// net/http buffers small bodies until the handler returns, so an
	// explicit flush is what actually puts the response on the wire before
	// any shadow cost is paid. Failed or infeasible optimizations have no
	// plan to measure.
	w.Flush()
	if err == nil {
		s.shadow.Observe(regret.Sample{
			Query:       q,
			Technique:   technique,
			PlanCost:    resp.Cost,
			PlanShape:   resp.Shape,
			Source:      src,
			TraceID:     root.TraceID(),
			RouteReason: routeReason,
		})
		// Same contract as the shadow: the exec sampler sees every
		// successful serve after the response is on the wire, and decides
		// internally (rate gate, eligibility, dedup) whether to execute. It
		// takes the plan in its cached frame and relabels only what it runs.
		s.sampler.Observe(feedback.Sample{
			Query:     q,
			Plan:      best,
			Frame:     frame,
			Technique: technique,
			TraceID:   root.TraceID(),
		})
	}
}

// observeQueueWait records semaphore-admission wait separately from compute
// time. 429 sheds never reach it, so the histogram measures only time spent
// actually queued, and the exemplar names the trace that waited longest.
func (s *Server) observeQueueWait(d time.Duration, traceID string) {
	if h := s.ob.Histogram(obs.MServerQueueSeconds, obs.SecondsBuckets); h != nil {
		h.ObserveExemplar(d.Seconds(), traceID)
	}
}

// run executes (or serves from cache) one optimization, returning the plan,
// the frame it is expressed in (see below) and the cache-source label.
//
// The uncached path (no cache configured, no_cache set, or a budget_mb
// override) runs under the request's own deadline and budget. The cached
// path treats the compute as shared property: it runs under a context
// detached from the request that happened to arrive first — bounded by the
// server-wide timeout — and under the server default budget, so one
// caller's short deadline or unusual budget never determines the outcome
// served to coalesced waiters and later hits.
//
// Cached plans are stored in the query's canonical frame: a hit may come
// from a semantically equivalent but differently-ordered spelling, whose
// query-local relation indexes and order-class ids mean different relations
// than the requester's. Each compute relabels its plan into the canonical
// frame before the cache stores it. The cached path returns the stored plan
// itself with the requester's canonical frame, whose RelFrom and EqFrom
// translate it; the uncached path returns a nil frame, meaning the plan is
// in q's own. A hit thus copies no tree: see leafNames and inFrame.
func (s *Server) run(ctx context.Context, technique string, q *query.Query, budget int64, req *OptimizeRequest) (*plan.Plan, *query.Canon, dp.Stats, string, error) {
	if s.cache == nil || req.NoCache || budget != s.budget {
		p, st, err := s.runEngine(ctx, technique, q, tech.Options{Budget: budget, Obs: s.ob})
		return p, nil, st, "uncached", err
	}
	cn := q.Canon()
	key := plancache.Key{Fingerprint: cn.Fingerprint, Technique: technique, CatalogVersion: s.catVersion}
	p, st, src, err := s.cache.DoCtx(ctx, key, func() (*plan.Plan, dp.Stats, error) {
		// WithoutCancel detaches the compute from the request's deadline but
		// keeps context values, so the request span still reaches the
		// engines and the trace shows the enumeration it happened to fund.
		cctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), s.timeout)
		defer cancel()
		p, st, err := s.runEngine(cctx, technique, q, tech.Options{Budget: s.budget, Obs: s.ob})
		if err != nil {
			return nil, st, err
		}
		return p.Remap(cn.RelTo, cn.EqTo), st, nil
	})
	if err != nil {
		return nil, nil, st, src.String(), err
	}
	return p, cn, st, src.String(), nil
}

// leafNames names the leaves of a plan in frame for the requester q: leaf c
// is q's relation frame.RelFrom[c], or q's relation c when frame is nil.
func leafNames(q *query.Query, frame *query.Canon) func(int) string {
	if frame == nil {
		return func(i int) string { return q.Relation(i).Name }
	}
	return func(c int) string { return q.Relation(frame.RelFrom[c]).Name }
}

// inFrame returns p relabeled out of frame into its requester's own, or p
// itself when frame is nil.
func inFrame(p *plan.Plan, frame *query.Canon) *plan.Plan {
	if frame == nil {
		return p
	}
	return p.Remap(frame.RelFrom, frame.EqFrom)
}

// runRouted executes a router-chosen technique with the mid-flight fallback
// armed: the engine runs with the deadline pulled in by reserve, and when
// that slice expires — or the engine aborts on its memory budget — while
// the request itself still has time, greedy answers instead. demoted names
// the fallback reason ("" when the engine's own result was served).
//
// The engine runs in its own goroutine because the cached path cannot be
// interrupted from here: a dedup waiter blocks until the shared fill
// completes, and the fill itself is detached property running under the
// server-wide timeout. On demotion that work is abandoned, not canceled —
// it keeps running (bounded by the server timeout), fills the cache for
// later arrivals, and its result is discarded through the buffered channel.
// The plan and its frame are run's.
func (s *Server) runRouted(ctx context.Context, technique string, q *query.Query, budget int64, req *OptimizeRequest, reserve time.Duration) (*plan.Plan, *query.Canon, dp.Stats, string, error, string) {
	dl, ok := ctx.Deadline()
	if !ok || reserve <= 0 || technique == tech.Greedy {
		// Nothing to fall back to (greedy is the floor) or no deadline to
		// guard: run directly.
		p, cn, st, src, err := s.run(ctx, technique, q, budget, req)
		return p, cn, st, src, err, ""
	}

	engineCtx, cancel := context.WithDeadline(ctx, dl.Add(-reserve))
	defer cancel()
	type result struct {
		p        *plan.Plan
		cn       *query.Canon
		st       dp.Stats
		src      string
		err      error
		panicked any
	}
	ch := make(chan result, 1)
	go func() {
		var res result
		// Hand a panic to the request goroutine's recoverOptimize; one in
		// abandoned work is dropped with its result.
		defer func() {
			res.panicked = recover()
			ch <- res
		}()
		res.p, res.cn, res.st, res.src, res.err = s.run(engineCtx, technique, q, budget, req)
	}()

	demote := ""
	select {
	case res := <-ch:
		if res.panicked != nil {
			panic(res.panicked)
		}
		switch {
		case errors.Is(res.err, dp.ErrCanceled) && ctx.Err() == nil:
			// The slice expired, not the request: fall through to greedy.
			demote = route.ReasonDeadlineDemote
		case errors.Is(res.err, memo.ErrBudget):
			// Routed requests trade the paper's infeasible outcome for a
			// cheap plan — the caller asked for "auto", not for a specific
			// engine's feasibility verdict.
			demote = route.ReasonBudgetDemote
		default:
			return res.p, res.cn, res.st, res.src, res.err, ""
		}
	case <-engineCtx.Done():
		if ctx.Err() != nil {
			// The request itself is dead; nothing to salvage.
			return nil, nil, dp.Stats{}, "uncached", dp.CtxErr(ctx), ""
		}
		demote = route.ReasonDeadlineDemote
	}

	p, cn, st, src, err := s.run(ctx, tech.Greedy, q, budget, req)
	return p, cn, st, src, err, demote
}

// decodeOptimize reads an /optimize body into the request and the query it
// describes. Every error it returns is the client's, answered with a 400.
func (s *Server) decodeOptimize(body io.Reader) (*OptimizeRequest, *query.Query, error) {
	var req OptimizeRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, nil, fmt.Errorf("bad request body: %v", err)
	}
	if req.Technique != "" && !slices.Contains(requestTechniques, req.Technique) {
		return nil, nil, fmt.Errorf("unknown technique %q (valid: %v)", req.Technique, RequestTechniques())
	}
	q, err := s.buildQuery(&req)
	if err != nil {
		return nil, nil, err
	}
	return &req, q, nil
}

// buildQuery materializes the request's query from SQL or the explicit
// shape.
func (s *Server) buildQuery(req *OptimizeRequest) (*query.Query, error) {
	switch {
	case req.SQL != "" && req.Query != nil:
		return nil, errors.New("request carries both sql and query; send one")
	case req.SQL != "":
		return parse.SQL(s.cat, req.SQL)
	case req.Query != nil:
		spec := req.Query
		preds := make([]query.Pred, len(spec.Preds))
		for i, p := range spec.Preds {
			preds[i] = query.Pred{LeftRel: p.LeftRel, LeftCol: p.LeftCol, RightRel: p.RightRel, RightCol: p.RightCol}
		}
		filters := make([]query.Filter, len(spec.Filters))
		for i, f := range spec.Filters {
			filters[i] = query.Filter{Rel: f.Rel, Col: f.Col, Bound: f.Bound}
		}
		var ob *query.OrderSpec
		if spec.OrderBy != nil {
			ob = &query.OrderSpec{Rel: spec.OrderBy.Rel, Col: spec.OrderBy.Col}
		}
		return query.NewFiltered(s.cat, spec.Rels, preds, filters, ob)
	}
	return nil, errors.New("request carries neither sql nor query")
}

// statusClientGone is 499, nginx's "client closed request" — the client
// disconnected while queued, so no response will be read anyway.
const statusClientGone = 499

func (s *Server) failf(w http.ResponseWriter, r *http.Request, code int, format string, args ...any) {
	s.writeJSON(w, r, code, map[string]any{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) writeJSON(w http.ResponseWriter, r *http.Request, code int, v any) {
	if c := s.ob.Counter(obs.Label(obs.MServerRequests, "route", r.URL.Path, "code", strconv.Itoa(code))); c != nil {
		c.Add(1)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
