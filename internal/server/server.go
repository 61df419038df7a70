// Package server exposes the simulation engine as an HTTP/JSON
// service — "simulation as a service" on top of internal/sched.  One
// Server wraps one Engine and serves:
//
//	GET  /healthz                   liveness (always 200 while the process runs)
//	GET  /readyz                    readiness (503 once draining)
//	GET  /metrics                   Prometheus text exposition of the registry
//	GET  /v1/experiments/{id}       a paper experiment, byte-identical to
//	                                `bioperf5 run <id> -json`
//	POST /v1/cells                  one simulation cell (app x variant x
//	                                FXUs x BTAC x seeds x scale)
//	POST /v1/cells:batch            many cells, streamed back as JSONL in
//	                                completion order
//
// Requests are validated and canonicalized before anything is
// submitted, so two clients asking for the same cell in different
// spellings ("combo" vs "combination", seeds in any order of arrival)
// address the same content hash and coalesce through the engine's
// singleflight and disk cache.  Admission control is a bounded
// semaphore over in-flight cells: a saturated server fast-fails with
// 429 + Retry-After instead of queueing unboundedly, per-request
// deadlines (?timeout=) cancel cells that outlive their caller, and
// StartDrain flips the server into lame-duck mode — in-flight work
// finishes, new API requests get 503 — for graceful SIGTERM shutdown.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync/atomic"
	"time"

	"bioperf5/internal/branch"
	"bioperf5/internal/core"
	"bioperf5/internal/harness"
	"bioperf5/internal/sched"
	"bioperf5/internal/telemetry"
)

// Options configures a Server.  Whatever the options, a batch request
// holds at most 256 cells (maxBatch), and the Retry-After hint on 429
// and 503 responses is at least one second (see retryAfter).
type Options struct {
	// Engine executes the cells.  Required; New panics on nil, because
	// a server without an engine cannot serve anything.
	Engine *sched.Engine
	// MaxInflight bounds concurrently admitted cells across all
	// requests (the admission-control semaphore).  Values < 1 mean
	// 4 x GOMAXPROCS — the engine's queue depth at its default pool
	// size, so the server saturates no earlier than the engine would.
	MaxInflight int
	// DefaultTimeout is the per-request deadline applied when the
	// client sends no ?timeout= query parameter; 0 means none.
	DefaultTimeout time.Duration
	// DefaultTrace is the trace policy applied to cells whose request
	// carries no "trace" field; the zero value means auto (capture each
	// distinct functional execution once, replay it for every timing
	// variation).  Responses are bit-identical under every policy.
	DefaultTrace core.TracePolicy
	// Tracer, when non-nil, records a hierarchical span per request —
	// handler, admission, and every engine/simulation stage beneath it
	// — exportable as JSONL or a Chrome trace-event file.  Nil (the
	// default) keeps the request path allocation-free: the
	// instrumentation's no-op form costs nothing measurable.
	Tracer *telemetry.Tracer
	// EnablePprof mounts the net/http/pprof handlers under
	// /debug/pprof/ so the capture hot loop can be profiled live.
	// Off by default: the endpoints expose stacks and heap contents,
	// which is diagnostics, not API surface.
	EnablePprof bool
}

// Server is the HTTP layer over one sched.Engine.  It implements
// http.Handler; all methods are safe for concurrent use.
type Server struct {
	opts Options
	eng  *sched.Engine
	reg  *telemetry.Registry
	mux  *http.ServeMux

	sem      chan struct{} // admission tokens, one per in-flight cell
	draining atomic.Bool

	mRequests  *telemetry.Counter
	mSaturated *telemetry.Counter
	mDraining  *telemetry.Counter
	mAdmitted  *telemetry.Counter
	mCoalesced *telemetry.Counter
	gInflight  *telemetry.Gauge
	hLatency   *telemetry.Histogram
}

// latencyBoundsUS is the request-latency bucket layout in microseconds:
// sub-millisecond cache hits up to multi-second cold experiment runs.
var latencyBoundsUS = []uint64{
	250, 1_000, 5_000, 25_000, 100_000, 500_000,
	1_000_000, 5_000_000, 30_000_000,
}

// New builds a server over the engine in o.  The server publishes its
// own metrics (server.*) into the engine's telemetry registry, so one
// /metrics scrape exposes both layers.
func New(o Options) *Server {
	if o.Engine == nil {
		panic("server: Options.Engine is required")
	}
	if o.MaxInflight < 1 {
		o.MaxInflight = 4 * runtime.GOMAXPROCS(0)
	}
	reg := o.Engine.Registry()
	s := &Server{
		opts: o,
		eng:  o.Engine,
		reg:  reg,
		mux:  http.NewServeMux(),
		sem:  make(chan struct{}, o.MaxInflight),

		mRequests:  reg.Counter("server.requests"),
		mSaturated: reg.Counter("server.requests.saturated"),
		mDraining:  reg.Counter("server.requests.draining"),
		mAdmitted:  reg.Counter("server.cells.admitted"),
		mCoalesced: reg.Counter("server.cells.coalesced"),
		gInflight:  reg.Gauge("server.cells.inflight"),
		hLatency:   reg.Histogram("server.request.latency_us", latencyBoundsUS),
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/version", s.handleVersion)
	s.mux.HandleFunc("GET /v1/experiments/{id}", s.handleExperiment)
	s.mux.HandleFunc("POST /v1/cells", s.handleCell)
	s.mux.HandleFunc("POST /v1/cells:batch", s.handleBatch)
	s.registerCacheTier()
	if o.EnablePprof {
		// Registered explicitly: the server owns its mux, so the
		// side-effect registrations on http.DefaultServeMux from
		// importing net/http/pprof never reach the API surface unless
		// asked for.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Registry returns the registry the server (and its engine) publish
// into — the data behind /metrics.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// StartDrain flips the server into lame-duck mode: /readyz reports
// 503 so load balancers stop routing here, new API requests are
// rejected with 503 + Retry-After, and requests already in flight run
// to completion.  The caller then shuts the http.Server down (which
// waits for those in-flight handlers) and finally drains the engine.
func (s *Server) StartDrain() { s.draining.Store(true) }

// ServeHTTP counts and times every request, rejects API traffic while
// draining, and dispatches to the route table.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mRequests.Add(1)
	start := time.Now()
	defer func() {
		s.hLatency.Observe(uint64(time.Since(start) / time.Microsecond))
	}()
	if s.opts.Tracer != nil {
		// Only when spans are on: the nil-Tracer path must not touch the
		// request context at all, so the common case stays alloc-free.
		ctx, sp := telemetry.StartSpan(
			telemetry.WithTracer(r.Context(), s.opts.Tracer), telemetry.StageRequest)
		sp.Attr("method", r.Method)
		sp.Attr("path", r.URL.Path)
		defer sp.End()
		r = r.WithContext(ctx)
	}
	if s.draining.Load() {
		switch r.URL.Path {
		case "/healthz", "/readyz", "/metrics":
			// The probe and scrape surface stays up through the drain.
		default:
			s.mDraining.Add(1)
			s.retryAfter(w)
			s.errorJSON(w, http.StatusServiceUnavailable, "server is draining")
			return
		}
	}
	s.mux.ServeHTTP(w, r)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	writePrometheus(w, s.reg.Snapshot(0))
}

// handleExperiment serves one paper experiment.  The response bytes
// are exactly what `bioperf5 run <id> -json` prints for the same
// configuration: both paths run the experiment's plan through
// harness.RunPaper, which renders from results collected in plan
// order, and encode it with Report.WriteJSON.
func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	e, err := harness.ByID(r.PathValue("id"))
	if err != nil {
		s.errorJSON(w, http.StatusNotFound, "%v", err)
		return
	}
	cfg, err := configFromQuery(r)
	if err != nil {
		s.errorJSON(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, cancel, err := s.requestContext(r)
	if err != nil {
		s.errorJSON(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer cancel()
	// A whole experiment is admitted as one unit of work: its cells
	// share the engine's worker pool with everything else anyway, and
	// charging per-cell would let one fig6 request starve the API.
	if !s.admit(ctx, 1) {
		s.saturated(w)
		return
	}
	defer s.release(1)
	cfg.Engine = s.eng
	cfg.Context = ctx
	reps, err := harness.RunPaper(cfg, e)
	if err != nil {
		s.errorJSON(w, statusForRunError(err), "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	reps[0].WriteJSON(w)
}

// admit wraps acquire in a serve.admission span so saturation shows up
// in a trace exactly where the 429 was decided.
func (s *Server) admit(ctx context.Context, n int) bool {
	_, sp := telemetry.StartSpan(ctx, telemetry.StageAdmission)
	ok := s.acquire(n)
	sp.AttrBool("admitted", ok)
	sp.AttrInt("cells", int64(n))
	sp.End()
	return ok
}

// acquire takes n admission tokens without blocking; either all n are
// held on return true, or none are.
func (s *Server) acquire(n int) bool {
	for i := 0; i < n; i++ {
		select {
		case s.sem <- struct{}{}:
		default:
			s.release(i)
			return false
		}
	}
	s.mAdmitted.Add(uint64(n))
	s.gInflight.Set(float64(len(s.sem)))
	return true
}

func (s *Server) release(n int) {
	for i := 0; i < n; i++ {
		<-s.sem
	}
	s.gInflight.Set(float64(len(s.sem)))
}

// saturated fast-fails an unadmittable request: 429 plus a Retry-After
// hint, never a blocked handler.
func (s *Server) saturated(w http.ResponseWriter) {
	s.mSaturated.Add(1)
	s.retryAfter(w)
	s.errorJSON(w, http.StatusTooManyRequests,
		"server saturated: %d cells in flight (limit %d)", len(s.sem), cap(s.sem))
}

// retryAfter derives the Retry-After hint from actual admission state
// rather than a fixed constant: the expected time for a slot to free
// is roughly one mean request latency, and the fuller the semaphore
// the less likely an early retry wins the race for it.  The estimate
// is clamped to [1s, 60s] so clients never hammer a cold server (no
// latency samples yet) and never back off absurdly after one
// pathological request; a saturated server under slow cells thus tells
// clients to back off longer than one under fast ones.
func (s *Server) retryAfter(w http.ResponseWriter) {
	occupancy := float64(len(s.sem)) / float64(cap(s.sem))
	est := s.hLatency.Mean() / 1e6 * occupancy // mean is in microseconds
	secs := int(math.Ceil(math.Min(60, math.Max(1, est))))
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
}

// requestContext derives the request's execution context: the HTTP
// request context (so a disconnected client cancels its cells) bounded
// by the ?timeout= query parameter or the server default.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	d := s.opts.DefaultTimeout
	if q := r.URL.Query().Get("timeout"); q != "" {
		v, err := time.ParseDuration(q)
		if err != nil || v <= 0 {
			return nil, nil, fmt.Errorf("bad timeout %q: want a positive Go duration like 30s", q)
		}
		d = v
	}
	if d > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		return ctx, cancel, nil
	}
	return r.Context(), func() {}, nil
}

// statusForRunError maps a cell-execution error to an HTTP status: a
// deadline (request timeout or the engine's per-cell watchdog) is 504,
// anything else is 500.
func statusForRunError(err error) int {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, sched.ErrCellTimeout) {
		return http.StatusGatewayTimeout
	}
	return http.StatusInternalServerError
}

// errorResponse is the JSON body of every non-2xx API answer.
// Malformed predictor specs additionally carry structured detail —
// which field failed, why, and what is registered — so clients can
// point at the offending parameter without parsing the message.
type errorResponse struct {
	Schema     string   `json:"schema"`
	Status     int      `json:"status"`
	Error      string   `json:"error"`
	Field      string   `json:"field,omitempty"`
	Reason     string   `json:"reason,omitempty"`
	Registered []string `json:"registered,omitempty"`
}

// badRequest answers a validation failure with 400.  A *branch.SpecError
// anywhere in the chain upgrades the body to the structured form.
func (s *Server) badRequest(w http.ResponseWriter, err error) {
	resp := errorResponse{
		Schema: harness.SchemaVersion,
		Status: http.StatusBadRequest,
		Error:  err.Error(),
	}
	var se *branch.SpecError
	if errors.As(err, &se) {
		resp.Field = se.Field
		resp.Reason = se.Reason
		resp.Registered = branch.Registered()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(resp.Status)
	json.NewEncoder(w).Encode(resp)
}

func (s *Server) errorJSON(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorResponse{
		Schema: harness.SchemaVersion,
		Status: status,
		Error:  fmt.Sprintf(format, args...),
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
