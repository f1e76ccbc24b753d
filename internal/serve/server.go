package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"net/url"
	"strings"
	"sync"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/results"
)

// Event is one NDJSON line of a /sweep response stream. Exactly one
// field is set per line:
//
//	{"data":"..."}     a chunk of rendered table bytes (figs mode);
//	                   concatenating every data field reproduces the
//	                   batch cgsweep stdout byte for byte
//	{"outcome":{...}}  one serialised cell (cells mode), in submission
//	                   order — the results.Encode line verbatim
//	{"done":{...}}     terminal success, with the sweep's cache stats
//	{"error":"..."}    terminal failure
//
// A stream that ends without a done or error event was truncated (the
// client treats that as an error, which is how drain correctness is
// observable from outside).
type Event struct {
	Data    string          `json:"data,omitempty"`
	Outcome json.RawMessage `json:"outcome,omitempty"`
	Done    *DoneStats      `json:"done,omitempty"`
	Error   string          `json:"error,omitempty"`
}

// DoneStats is the terminal accounting of one sweep: how many cells it
// submitted to the scheduler and how each was satisfied. A figure sweep
// submits the distinct cells of its figures (experiments.Sweep plans
// them: cells several figures share count once), an explicit Cells
// spec the cells as listed. Cells = Computed + Stored + Deduped on a
// completed stream.
type DoneStats = results.SessionStats

// Config assembles a Server: Workers engine workers (<= 0 selects
// GOMAXPROCS), one cell executor each, over Store, the cache every
// client shares.
type Config struct {
	Workers int
	Store   *results.Store
}

// NewScheduler returns the cell pipeline over eng and store with
// executors executors (<= 0 selects the engine's worker count), each
// reporting its lane to prog. The store is what makes the server a
// cache rather than a proxy. prog may be nil.
func NewScheduler(eng *engine.Engine, store *results.Store, prog *obs.Progress, executors int) *results.Scheduler {
	if executors <= 0 {
		executors = eng.Workers()
	}
	return results.NewScheduler(results.Local{Eng: eng, Obs: prog}, store, prog, executors)
}

// Server is the sweep server's one HTTP surface, served by cgserve:
//
//	POST /sweep        streamed sweeps (Event lines)
//	GET  /cell/{key}   the shared cache, content-addressed
//	/progress          JSON Snapshot: provenance and the live counters
//	/healthz           JSON Health (200 ok / 503 draining)
//	/debug/pprof/...   the standard pprof handlers
//
// It owns its engine, its scheduler and the progress ledger both
// report to, so a sweep is watched and profiled on the server that
// runs it. Wire Drain and Wait into the host's signal handling for
// graceful shutdown.
type Server struct {
	mux   *http.ServeMux
	sched *results.Scheduler
	store *results.Store
	prog  *obs.Progress
}

// Snapshot is what /progress serves: the process's provenance and the
// server's live progress counters.
type Snapshot struct {
	Provenance obs.Provenance       `json:"provenance"`
	Progress   obs.ProgressSnapshot `json:"progress"`
}

// Health is what /healthz serves: liveness (answering at all) plus the
// drain state. A draining server answers 503 so load balancers and
// smoke scripts stop sending new sweeps while in-flight streams finish;
// InFlight lets an operator watch the drain converge.
type Health struct {
	Status   string `json:"status"` // "ok" or "draining"
	Draining bool   `json:"draining"`
	InFlight int64  `json:"in_flight,omitempty"`
}

// New returns a serving Server over cfg.
func New(cfg Config) *Server {
	prog := &obs.Progress{}
	eng := engine.New(cfg.Workers).SetProgress(prog)
	s := &Server{
		mux:   http.NewServeMux(),
		sched: NewScheduler(eng, cfg.Store, prog, 0),
		store: cfg.Store,
		prog:  prog,
	}
	s.mux.HandleFunc("/sweep", s.handleSweep)
	s.mux.HandleFunc("/cell/", s.handleCell)
	s.mux.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, Snapshot{Provenance: obs.Capture(obs.Nanotime()), Progress: s.prog.Snapshot()})
	})
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		h := Health{Status: "ok", InFlight: s.sched.InFlight()}
		code := http.StatusOK
		if s.sched.Draining() {
			h.Status, h.Draining, code = "draining", true, http.StatusServiceUnavailable
		}
		writeJSON(w, code, h)
	})
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintln(w, "endpoints: /progress /healthz /debug/pprof/")
	})
	return s
}

// ServeHTTP routes a request to its endpoint.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Drain stops admitting sweeps; accepted streams run to completion.
func (s *Server) Drain() { s.sched.Drain() }

// Wait blocks until every accepted sweep has finished and the
// scheduler has stopped. Call after Drain.
func (s *Server) Wait() { s.sched.Wait() }

// writeJSON answers code with v as indented JSON.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// handleSweep admits one client sweep and streams its events.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a sweep spec", http.StatusMethodNotAllowed)
		return
	}
	spec, figs, jobs, err := admit(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	sess, err := s.sched.OpenSession(spec.Client)
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	defer sess.Close()

	w.Header().Set("Content-Type", "application/x-ndjson")
	ew := newEventWriter(w)

	var runErr error
	if len(figs) > 0 {
		runErr = experiments.Sweep(sess, figs, dataWriter{ew})
	}
	if runErr == nil && len(jobs) > 0 {
		runErr = sess.Run(jobs, func(i int, o results.Outcome) {
			line, err := results.Encode(o)
			if err != nil {
				ew.fail(err)
				return
			}
			// Encode appends the NDJSON newline; the raw JSON value is
			// the line without it.
			ew.event(Event{Outcome: json.RawMessage(line[:len(line)-1])})
		})
	}
	if runErr == nil {
		runErr = ew.sticky()
	}
	if runErr != nil {
		// Best effort: if the stream already broke, the write fails
		// silently and the missing done event tells the client.
		ew.terminalError(runErr)
		return
	}
	st := sess.Stats()
	ew.event(Event{Done: &st})
}

// handleCell serves one stored cell from the shared cache. The cell key
// is URL-escaped into the path; because cells are deterministic
// functions of their key, the key's content hash is a permanently valid
// strong ETag — an If-None-Match hit answers 304 from the key alone,
// without touching the store, and served cells are immutable.
func (s *Server) handleCell(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		http.Error(w, "GET a cell key", http.StatusMethodNotAllowed)
		return
	}
	key, err := url.PathUnescape(strings.TrimPrefix(r.URL.Path, "/cell/"))
	if err != nil || key == "" {
		http.Error(w, "bad cell key", http.StatusBadRequest)
		return
	}
	etag := `"` + results.KeyHash(key) + `"`
	w.Header().Set("ETag", etag)
	if match := r.Header.Get("If-None-Match"); match != "" && strings.Contains(match, etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	data, ok, err := s.store.GetKey(key)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if !ok {
		http.Error(w, "cell not computed", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "public, max-age=31536000, immutable")
	_, _ = w.Write(data)
}

// eventWriter serialises Event lines onto the response, flushing per
// event so rows reach the client as cells complete. Write errors stick:
// once the client is gone, the sweep finishes its accepted work
// (deliveries still resolve) but nothing more is written.
type eventWriter struct {
	mu  sync.Mutex
	w   io.Writer
	fl  http.Flusher
	err error
}

func newEventWriter(w io.Writer) *eventWriter {
	ew := &eventWriter{w: w}
	if fl, ok := w.(http.Flusher); ok {
		ew.fl = fl
	}
	return ew
}

func (e *eventWriter) event(ev Event) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err != nil {
		return e.err
	}
	b, err := json.Marshal(ev)
	if err != nil {
		e.err = err
		return err
	}
	b = append(b, '\n')
	if _, err := e.w.Write(b); err != nil {
		e.err = err
		return err
	}
	if e.fl != nil {
		e.fl.Flush()
	}
	return nil
}

// fail records an encoding-side error without touching the stream.
func (e *eventWriter) fail(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err == nil {
		e.err = err
	}
}

// sticky reports the first error, if any.
func (e *eventWriter) sticky() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// terminalError emits the error event, bypassing a sticky error so a
// server-side failure still reaches a healthy client.
func (e *eventWriter) terminalError(err error) {
	e.mu.Lock()
	e.err = nil
	e.mu.Unlock()
	e.event(Event{Error: err.Error()})
}

// dataWriter adapts the rendered row stream onto events: every Write —
// one table row, title or separator — becomes one data event, so the
// client reassembles the batch output byte for byte.
type dataWriter struct{ e *eventWriter }

func (d dataWriter) Write(p []byte) (int, error) {
	if err := d.e.event(Event{Data: string(p)}); err != nil {
		return 0, err
	}
	return len(p), nil
}
