package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"html"
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

// DebugMux is a ServeMux that records every surface mounted through it and
// serves the list at /debug, so the index shows exactly what a server
// mounted — no hand-kept list to drift.
type DebugMux struct {
	*http.ServeMux
	surfaces []debugSurface
}

type debugSurface struct{ path, title string }

// NewDebugMux returns a mux serving the /debug index.
func NewDebugMux() *DebugMux {
	m := &DebugMux{ServeMux: http.NewServeMux()}
	m.HandleFunc("/debug", m.serveIndex)
	return m
}

// Mount serves h at path and lists it on the /debug index under title.
func (m *DebugMux) Mount(path, title string, h http.Handler) {
	m.Handle(path, h)
	m.surfaces = append(m.surfaces, debugSurface{path, title})
}

func (m *DebugMux) serveIndex(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	b.WriteString("<!DOCTYPE html><html><head><title>/debug</title>" + debugStyle + "</head><body>\n")
	b.WriteString("<h1>sdpopt debug surfaces</h1>\n<table><tr><th>surface</th><th>what it shows</th></tr>\n")
	for _, s := range m.surfaces {
		fmt.Fprintf(&b, "<tr><td><a href=\"%s\">%s</a></td><td>%s</td></tr>\n", s.path, s.path, html.EscapeString(s.title))
	}
	b.WriteString("</table>\n</body></html>\n")
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}

const debugStyle = "<style>body{font-family:sans-serif;margin:1em 2em}pre{background:#f6f8fa;padding:0.8em;overflow-x:auto}" +
	"table{border-collapse:collapse}td,th{padding:0.15em 0.8em;text-align:left;border-bottom:1px solid #eee}</style>"

// MountPage mounts a typed snapshot as two surfaces: path, an HTML page
// showing the dump's own text rendering — the same text the sdplab
// subcommand for that dump prints — and path.json, the dump as indented
// JSON. snapshot is called once per request.
func MountPage[D interface{ Render() string }](m *DebugMux, path, title string, snapshot func() D) {
	m.Mount(path, title, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprintf(w, "<!DOCTYPE html><html><head><title>%s</title>%s</head><body>\n"+
			"<h1>sdpopt %s</h1>\n<p><a href=\"%s.json\">%s.json</a> · <a href=\"/debug\">debug index</a></p>\n<pre>%s</pre>\n</body></html>\n",
			path, debugStyle, html.EscapeString(title), path, path, html.EscapeString(snapshot().Render()))
	}))
	m.Mount(path+".json", title+", machine-readable", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(snapshot())
	}))
}
