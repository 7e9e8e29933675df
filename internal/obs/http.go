package obs

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"
)

// Handler returns an http.Handler exposing the registry and the Go runtime
// profiling surface:
//
//	/metrics      Prometheus text exposition of the registry
//	/debug/vars   expvar (cmdline, memstats)
//	/debug/pprof  net/http/pprof profiles (heap, cpu, goroutine, ...)
//
// pprof and expvar are wired explicitly onto a private mux so the endpoint
// works regardless of http.DefaultServeMux state.
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		// Exemplars are only legal in the OpenMetrics exposition, so the
		// classic text format stays exemplar-free for strict 0.0.4 parsers.
		if strings.Contains(req.Header.Get("Accept"), "application/openmetrics-text") {
			w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
			r.WriteOpenMetrics(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		fmt.Fprint(w, "sdpopt observability endpoint\n/metrics\n/debug/vars\n/debug/pprof/\n")
	})
	return mux
}

// Connection deadlines of Serve's listener, so a client that never finishes
// its headers cannot hold a connection for the life of the process. No
// ReadTimeout or WriteTimeout: /debug/pprof/profile streams for as long as
// its seconds parameter asks.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// Serve starts an HTTP server for the registry on addr (e.g. ":8080") in a
// background goroutine, returning the bound address — useful with ":0".
// The server lives until process exit; it exists to watch long experiment
// runs live, not to be managed.
func (r *Registry) Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obs: metrics listener: %w", err)
	}
	srv := &http.Server{
		Handler:           r.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	go srv.Serve(ln)
	return ln.Addr().String(), nil
}
