// Package obshttp is the HTTP half of the observability layer: the
// debug/serving surface of cgserve. It lives apart from internal/obs
// because internal/vm imports obs for cycle timelines, and a binary
// that runs cells without serving them (cgsweep, cgrun, cgstats,
// cgbench, cgworker) should not link net/http, TLS and x509 to do it.
package obshttp

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Snapshot is what the debug endpoint's /progress handler serves: the
// process's provenance and the sweep's live progress counters.
type Snapshot struct {
	Provenance obs.Provenance        `json:"provenance"`
	Progress   *obs.ProgressSnapshot `json:"progress,omitempty"`
}

// Health is what /healthz serves: liveness (answering at all) plus the
// process's drain state. A draining server answers 503 so load
// balancers and smoke scripts stop sending new sweeps while in-flight
// streams finish; InFlight lets an operator watch the drain converge.
type Health struct {
	Status   string `json:"status"` // "ok" or "draining"
	Draining bool   `json:"draining"`
	InFlight int64  `json:"in_flight,omitempty"`
}

// Server is the debug/serving HTTP surface: net/http/pprof, the JSON
// progress snapshot, and /healthz. It exists so the sweep server, and
// every sweep it runs, can be profiled and watched while it runs.
// Hosts with their own
// endpoints (cgserve's /sweep and /cell) mount them on Mux before
// announcing the address.
type Server struct {
	ln     net.Listener
	srv    *http.Server
	mux    *http.ServeMux
	health atomic.Pointer[func() Health]
}

// Serve binds addr (":0" picks a free port; the chosen address is
// reported by Addr) and serves in a background goroutine:
//
//	/progress          JSON Snapshot: the process's provenance and prog's counters
//	/healthz           JSON Health (200 ok / 503 draining)
//	/debug/pprof/...   the standard pprof handlers
//
// Snapshots are taken per request, so they always reflect the live
// counters; a nil prog serves provenance alone. Without SetHealth,
// /healthz reports a static ok.
func Serve(addr string, prog *obs.Progress) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obshttp: debug listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	s := &Server{ln: ln, mux: mux, srv: &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}}
	mux.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		snap := Snapshot{Provenance: obs.Capture(obs.Nanotime())}
		if prog != nil {
			ps := prog.Snapshot()
			snap.Progress = &ps
		}
		if err := enc.Encode(snap); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		h := Health{Status: "ok"}
		if f := s.health.Load(); f != nil {
			h = (*f)()
		}
		if h.Status == "" {
			h.Status = "ok"
			if h.Draining {
				h.Status = "draining"
			}
		}
		w.Header().Set("Content-Type", "application/json")
		if h.Draining {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(h)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintln(w, "endpoints: /progress /healthz /debug/pprof/")
	})
	go func() {
		// ErrServerClosed after Close; anything else is reported by the
		// next Close call's error (the listener is gone either way).
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// SetHealth installs the /healthz callback (nil restores the static
// ok). Safe to call while serving — the handler reads it per request.
func (s *Server) SetHealth(f func() Health) {
	if f == nil {
		s.health.Store(nil)
		return
	}
	s.health.Store(&f)
}

// Mux exposes the server's mux so a host can mount its own endpoints
// (cgserve's sweep API) on the same listener. http.ServeMux.Handle is
// internally locked, but register before publishing the address —
// requests racing a registration would 404.
func (s *Server) Mux() *http.ServeMux { return s.mux }

// Addr reports the bound address (host:port), useful with ":0".
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and releases the listener.
func (s *Server) Close() error { return s.srv.Close() }
