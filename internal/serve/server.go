// Package serve is the framework's HTTP serving layer: it exposes
// trained model artifacts (internal/model) as a small JSON-over-HTTP
// matching service — the production face of the "reusable EM model"
// §2 of the paper argues active learning amortizes across EM instances.
//
// Routes:
//
//	POST /v1/match            two tables in, predicted pairs with confidence out
//	POST /v1/score            pre-featurized vectors in, match scores out (batched)
//	GET  /v1/models           the model registry: versions, active alias, health
//	POST /v1/models           publish a new version (admin; ?id=, ?activate=)
//	POST /v1/models/{id}/activate  flip the default alias (admin)
//	DELETE /v1/models/{id}    retire a non-active version (admin)
//	GET  /healthz             liveness plus per-model readiness
//	GET  /metrics             Prometheus text: request counts, latency histograms,
//	                          swap/admission counters, batching and reuse rates
//
// The server is production-shaped: a versioned model registry with
// zero-downtime hot swap (atomic alias flip; in-flight work drains on
// the old version's own pool), per-tenant token-bucket admission,
// per-request deadlines, bounded worker pools that coalesce concurrent
// score requests into merged batches, graceful drain of in-flight work
// on shutdown, and structured request logging through the core event
// vocabulary.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/alem/alem/internal/core"
	"github.com/alem/alem/internal/dataset"
	"github.com/alem/alem/internal/feature"
	"github.com/alem/alem/internal/model"
	"github.com/alem/alem/internal/resilience"
)

// Config sizes the server. The zero value serves on an OS-assigned port
// with sensible defaults; see the field comments for what each knob
// bounds.
type Config struct {
	// Addr is the listen address, e.g. ":8080". Empty binds
	// 127.0.0.1:0 (an OS-assigned port, reported by Addr()).
	Addr string
	// Workers bounds concurrent learner batches per model version
	// (default GOMAXPROCS).
	Workers int
	// MaxBatch caps the vectors merged into one score batch (default 256).
	MaxBatch int
	// Linger is how long an under-filled batch waits for company
	// (0 selects the default 2ms; negative disables waiting but still
	// coalesces already-queued requests).
	Linger time.Duration
	// QueueDepth bounds queued score jobs per model version before
	// submit blocks (default 4×Workers).
	QueueDepth int
	// RequestTimeout is the per-request deadline (default 30s).
	RequestTimeout time.Duration
	// DrainTimeout bounds graceful shutdown (default 15s).
	DrainTimeout time.Duration
	// MaxBodyBytes caps request bodies (default 64 MiB — match requests
	// carry whole tables, and published artifacts carry corpora).
	MaxBodyBytes int64
	// BreakerThreshold is the consecutive model-failure count (timeouts,
	// panics, internal errors) that opens the circuit breaker around a
	// model version (default 5). While open, that version sheds with 429
	// and a Retry-After hint instead of queueing doomed work.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before a single
	// probe request is let through (default 10s).
	BreakerCooldown time.Duration
	// ShedWatermark sheds /v1/score requests with 429 once the resolved
	// version's score queue holds this many jobs (0, the default,
	// disables shedding and relies on submit backpressure alone). Set it
	// below QueueDepth to turn overload into fast rejections rather than
	// queue-long waits.
	ShedWatermark int
	// TenantRate grants each tenant (X-Alem-Tenant header or ?tenant=)
	// an independent token bucket of this many model-route requests per
	// second; a tenant past its bucket degrades to 429 + Retry-After
	// instead of starving everyone else. 0, the default, disables
	// per-tenant admission. Requests naming no tenant share one
	// anonymous bucket.
	TenantRate float64
	// TenantBurst is the per-tenant bucket size (default 2×TenantRate,
	// minimum 1). Ignored when TenantRate is 0.
	TenantBurst int
	// EnableAdmin mounts the mutating registry routes (publish /
	// activate / remove model versions). Off by default: they are
	// unauthenticated, so opt in (almserve -admin) and bind a private
	// address. GET /v1/models is always available.
	EnableAdmin bool
	// ModelsDir, when set, is where admin-published artifacts are
	// persisted (atomically, via temp+fsync+rename) so a restart
	// reloads the same fleet. Empty keeps published models in memory
	// only.
	ModelsDir string
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: the profile endpoints are unauthenticated and a CPU
	// profile holds a request open for its whole sampling window, so they
	// are opt-in (almserve -pprof) and bypass the request-timeout
	// middleware that would otherwise cut profiles short.
	EnablePprof bool
}

// withDefaults fills unset fields. It is idempotent: New and NewMulti
// apply it, and so does the registry they build.
func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.Linger == 0 {
		c.Linger = 2 * time.Millisecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 15 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 10 * time.Second
	}
	return c
}

// Server serves the versioned model registry. Create with New (one
// boot artifact) or NewMulti (empty registry, publish before or after
// start); run with ListenAndServe, or mount Handler on a listener of
// your own (tests use httptest).
type Server struct {
	cfg       Config
	models    *Registry
	met       *metrics
	tenants   *resilience.TenantLimiter
	observers []core.Observer

	ready    chan struct{}
	addr     atomic.Pointer[net.TCPAddr]
	draining atomic.Bool
	total    atomic.Int64
}

// BootVersion is the version id New assigns the artifact it is given.
const BootVersion = "v1"

// New builds a Server with art published and activated as version
// BootVersion — the single-model path cmd/almserve -model takes.
// Observers receive the serve event stream (RequestDone per request,
// ServerStart/DrainStart/ServerStop around the lifecycle, and the
// ModelPublished/ModelActivated/ModelSwapFailed registry vocabulary).
func New(art *model.Artifact, cfg Config, observers ...core.Observer) *Server {
	s := NewMulti(cfg, observers...)
	if err := s.models.Publish(BootVersion, art); err != nil {
		// A loaded artifact is already validated; only nil reaches here,
		// and serving nothing was never an option for this constructor.
		panic(fmt.Sprintf("serve: boot publish: %v", err))
	}
	s.models.Activate(BootVersion)
	return s
}

// NewMulti builds a Server over an empty model registry: publish and
// activate versions through (*Server).Models() or the admin routes.
// Until a version is activated, model routes answer 503 and /healthz
// reports degraded (alive, routable, serving nothing).
func NewMulti(cfg Config, observers ...core.Observer) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		met:       newMetrics(),
		observers: observers,
		ready:     make(chan struct{}),
	}
	s.models = newRegistry(cfg, s.emit)
	if cfg.TenantRate > 0 {
		s.tenants = resilience.NewTenantLimiter(cfg.TenantRate, cfg.TenantBurst, nil)
	}
	// Registry, pool and matcher statistics live in their own components;
	// they join the scrape as registry callbacks so /metrics stays one
	// rendering pass over one registry. Pool and breaker series are
	// summed across model versions (plus retired accumulators) so the
	// counters survive swaps monotonically.
	reg := s.met.reg
	reg.GaugeFunc("alem_breaker_state",
		"Active model's circuit-breaker position (0 closed, 1 open, 2 half-open).",
		func() float64 {
			if b := s.models.activeBreaker(); b != nil {
				return float64(b.State())
			}
			return 0
		})
	reg.CounterFunc("alem_breaker_opens_total",
		"Times any model version's circuit breaker has tripped.", s.models.breakerOpens)
	reg.GaugeFunc("alem_models_loaded",
		"Model versions currently held by the registry.",
		func() float64 { return float64(s.models.Len()) })
	reg.CounterFunc("alem_model_swaps_total",
		"Default-alias activations (hot swaps).", s.models.swaps.Load)
	reg.CounterFunc("alem_model_swap_failures_total",
		"Model publishes rejected by validation.", s.models.swapFailures.Load)
	reg.CounterFunc("alem_score_requests_total",
		"Score jobs accepted by the batching pools.",
		func() int64 { j, _, _ := s.models.poolTotals(); return j })
	reg.CounterFunc("alem_score_batches_total",
		"Merged batches executed by the worker pools.",
		func() int64 { _, b, _ := s.models.poolTotals(); return b })
	reg.CounterFunc("alem_score_vectors_total",
		"Feature vectors scored.",
		func() int64 { _, _, v := s.models.poolTotals(); return v })
	reg.GaugeFunc("alem_score_batch_reuse_rate",
		"Fraction of score jobs that coalesced into an already-open batch.",
		func() float64 {
			jobs, batches, _ := s.models.poolTotals()
			if jobs == 0 {
				return 0
			}
			return 1 - float64(batches)/float64(jobs)
		})
	reg.CounterFunc("alem_matcher_extractor_reuse_hits_total",
		"Match calls that reused a cached extractor.",
		func() int64 { hits, _ := s.models.extractorReuse(); return hits })
	reg.CounterFunc("alem_matcher_extractor_reuse_misses_total",
		"Match calls that built a fresh extractor.",
		func() int64 { _, misses := s.models.extractorReuse(); return misses })
	return s
}

// Models is the server's model registry: publish, activate and retire
// versions programmatically (the admin HTTP routes drive the same
// methods).
func (s *Server) Models() *Registry { return s.models }

func (s *Server) emit(e core.Event) {
	for _, o := range s.observers {
		o.Observe(e)
	}
}

// Close drains every model version's score pool. ListenAndServe calls
// it on the way out; callers that mount Handler on their own listener
// (tests) should defer it. Safe to call more than once.
func (s *Server) Close() { s.models.Close() }

// Ready is closed once the listener is bound; Addr is valid after it.
func (s *Server) Ready() <-chan struct{} { return s.ready }

// Addr returns the bound listen address ("" before Ready).
func (s *Server) Addr() string {
	if a := s.addr.Load(); a != nil {
		return a.String()
	}
	return ""
}

// ListenAndServe binds the configured address and serves until ctx is
// cancelled (typically by SIGTERM), then shuts down gracefully: the
// listener closes, in-flight requests drain within DrainTimeout, and
// every model version's score pool finishes every accepted job before
// the call returns.
func (s *Server) ListenAndServe(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		s.models.Close()
		return fmt.Errorf("serve: listen %s: %w", s.cfg.Addr, err)
	}
	s.addr.Store(ln.Addr().(*net.TCPAddr))
	start := time.Now()
	kind, dim := "none", 0
	if e := s.models.current.Load(); e != nil {
		kind, dim = string(e.art.Kind), e.art.Dim
	}
	s.emit(ServerStart{Addr: s.Addr(), Model: kind, Dim: dim})
	close(s.ready)

	hs := &http.Server{Handler: s.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	select {
	case err := <-errCh:
		s.models.Close()
		return err
	case <-ctx.Done():
	}

	s.draining.Store(true)
	s.emit(DrainStart{InFlight: int(s.met.inFlight.Load())})
	shutCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	err = hs.Shutdown(shutCtx)
	// Handlers have returned (or the drain budget is spent); now drain
	// the batching pools so no accepted score job is dropped.
	s.models.Close()
	s.emit(ServerStop{Requests: s.total.Load(), Uptime: time.Since(start)})
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("serve: drain timeout after %s: %w", s.cfg.DrainTimeout, err)
	}
	return err
}

// Handler returns the server's route tree, instrumented with deadlines,
// body limits, metrics and request logging. It is exported so tests can
// drive the server through httptest without a real listener.
//
// The mutating registry routes exist only with Config.EnableAdmin; the
// read-only GET /v1/models is always mounted. With Config.EnablePprof
// the net/http/pprof endpoints are mounted under /debug/pprof/, routed
// before the instrumentation middleware: profile requests legitimately
// outlive RequestTimeout and must not feed the request metrics or the
// breaker.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/match", s.handleMatch)
	mux.HandleFunc("POST /v1/score", s.handleScore)
	mux.HandleFunc("GET /v1/models", s.handleModelsList)
	if s.cfg.EnableAdmin {
		mux.HandleFunc("POST /v1/models", s.handleModelPublish)
		mux.HandleFunc("POST /v1/models/{id}/activate", s.handleModelActivate)
		mux.HandleFunc("DELETE /v1/models/{id}", s.handleModelRemove)
	}
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	h := s.instrument(mux)
	if !s.cfg.EnablePprof {
		return h
	}
	debug := http.NewServeMux()
	debug.HandleFunc("/debug/pprof/", pprof.Index)
	debug.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	debug.HandleFunc("/debug/pprof/profile", pprof.Profile)
	debug.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	debug.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/debug/pprof/") {
			debug.ServeHTTP(w, r)
			return
		}
		h.ServeHTTP(w, r)
	})
}

// breakerSlot carries the model version a request resolved, so the
// panic-recover middleware can feed the right version's breaker.
// Handlers bind it after acquiring an entry; a model-route panic before
// resolution falls back to the active version's breaker.
type breakerSlot struct{ b *resilience.Breaker }

type breakerSlotKey struct{}

func bindBreaker(r *http.Request, b *resilience.Breaker) {
	if slot, ok := r.Context().Value(breakerSlotKey{}).(*breakerSlot); ok {
		slot.b = b
	}
}

// instrument wraps the mux with the cross-cutting serving concerns:
// in-flight accounting, per-request deadlines, body caps, panic
// containment, the request counter/latency metrics, and one RequestDone
// event per request.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.met.inFlight.Add(1)
		defer s.met.inFlight.Add(-1)
		s.total.Add(1)

		slot := &breakerSlot{}
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		r = r.WithContext(context.WithValue(ctx, breakerSlotKey{}, slot))
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)

		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		func() {
			// A panicking handler (a sick model blowing up in Predict) is
			// contained to its request: counted, fed to the breaker so
			// repeated panics trip it, and answered with 500 — instead of
			// net/http tearing down the connection with no metrics trace.
			// Only model-route panics reach a breaker: a bug in /healthz
			// or /metrics says nothing about any model and must not shed
			// healthy match/score traffic. The breaker belongs to the
			// version the handler resolved; a panic before resolution is
			// charged to the active version.
			defer func() {
				if rv := recover(); rv != nil {
					s.met.panics.Add(1)
					if isModelRoute(r.URL.Path) {
						b := slot.b
						if b == nil {
							b = s.models.activeBreaker()
						}
						if b != nil {
							b.Record(fmt.Errorf("serve: handler panic: %v", rv))
						}
					}
					rec.status = http.StatusInternalServerError
					if !rec.wroteHeader {
						writeError(rec, http.StatusInternalServerError, "internal error: handler panic")
					}
				}
			}()
			next.ServeHTTP(rec, r)
		}()

		elapsed := time.Since(start)
		route := r.URL.Path
		s.met.observe(route, rec.status, elapsed.Seconds())
		s.emit(RequestDone{
			Method: r.Method, Route: route, Status: rec.status,
			Bytes: rec.bytes, Elapsed: elapsed, Remote: r.RemoteAddr,
		})
	})
}

// isModelRoute reports whether the path exercises a model — the only
// routes whose outcomes (including panics) feed a circuit breaker.
func isModelRoute(path string) bool {
	return path == "/v1/match" || path == "/v1/score"
}

type statusRecorder struct {
	http.ResponseWriter
	status      int
	bytes       int
	wroteHeader bool
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.wroteHeader = true
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	r.wroteHeader = true
	n, err := r.ResponseWriter.Write(p)
	r.bytes += n
	return n, err
}

// Wire types.

type tableJSON struct {
	Name   string    `json:"name,omitempty"`
	Schema []string  `json:"schema"`
	Rows   []rowJSON `json:"rows"`
}

type rowJSON struct {
	ID     string   `json:"id"`
	Values []string `json:"values"`
}

type matchRequest struct {
	Left  tableJSON `json:"left"`
	Right tableJSON `json:"right"`
}

type pairJSON struct {
	LeftID     string  `json:"left_id"`
	RightID    string  `json:"right_id"`
	Confidence float64 `json:"confidence"`
}

type matchResponse struct {
	Pairs      []pairJSON `json:"pairs"`
	Candidates int        `json:"candidates"`
	ElapsedMS  float64    `json:"elapsed_ms"`
}

type scoreRequest struct {
	Vectors [][]float64 `json:"vectors"`
}

type scoreResponse struct {
	Scores  []float64 `json:"scores"`
	Matches []bool    `json:"matches"`
}

// errorResponse is every non-2xx body. Reason is set on 429s so clients
// and dashboards can tell the admission layers apart without parsing
// prose: "tenant" (per-tenant bucket), "shed" (queue over watermark),
// "breaker" (circuit open).
type errorResponse struct {
	Error  string `json:"error"`
	Reason string `json:"reason,omitempty"`
}

// Shed reasons, pinned by TestShedResponsesConsistent.
const (
	ShedReasonTenant  = "tenant"
	ShedReasonShed    = "shed"
	ShedReasonBreaker = "breaker"
)

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// writeShed answers a 429 the uniform way every admission layer must:
// Retry-After header (whole seconds, at least 1) plus a JSON body
// naming the reason.
func writeShed(w http.ResponseWriter, reason string, retry time.Duration, format string, args ...any) {
	secs := int(retry.Round(time.Second).Seconds())
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, http.StatusTooManyRequests, errorResponse{
		Error:  fmt.Sprintf(format, args...) + fmt.Sprintf("; retry in %ds", secs),
		Reason: reason,
	})
}

// statusFor maps pipeline errors to HTTP: deadline → 504, client cancel
// or drain → 503.
func statusFor(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled), errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// tenantFor extracts the admission key: the X-Alem-Tenant header, else
// the tenant query parameter, else "" — the shared anonymous bucket.
func tenantFor(r *http.Request) string {
	if t := r.Header.Get("X-Alem-Tenant"); t != "" {
		return t
	}
	return r.URL.Query().Get("tenant")
}

// modelParam extracts the requested version id: the X-Alem-Model
// header, else the model query parameter, else "" — the default alias.
func modelParam(r *http.Request) string {
	if m := r.Header.Get("X-Alem-Model"); m != "" {
		return m
	}
	return r.URL.Query().Get("model")
}

// admitTenant is the first admission layer on model routes: each tenant
// spends from its own token bucket, so one hot tenant degrades to fast
// 429s instead of starving the fleet. Always admits when per-tenant
// admission is not configured.
func (s *Server) admitTenant(w http.ResponseWriter, r *http.Request) bool {
	if s.tenants == nil {
		return true
	}
	tenant := tenantFor(r)
	ok, retry := s.tenants.Allow(tenant)
	if ok {
		return true
	}
	s.met.shed.Add(1)
	s.met.tenant.Add(1)
	name := tenant
	if name == "" {
		name = "(anonymous)"
	}
	writeShed(w, ShedReasonTenant, retry, "tenant %s over its request rate", name)
	return false
}

// resolveModel resolves the request's model id against the registry and
// pins the version for the request's lifetime; callers must defer the
// returned release. Unknown ids answer 404, an empty registry 503.
func (s *Server) resolveModel(w http.ResponseWriter, r *http.Request) (*modelEntry, func(), bool) {
	e, release, err := s.models.acquire(modelParam(r))
	if err != nil {
		if errors.Is(err, ErrNoActiveModel) {
			writeError(w, http.StatusServiceUnavailable, "no active model version; publish and activate one")
		} else {
			writeError(w, http.StatusNotFound, "%v", err)
		}
		return nil, nil, false
	}
	bindBreaker(r, e.breaker)
	return e, release, true
}

// breakerAdmission is one admitted model-route request's obligation to
// its version's circuit breaker: if the request holds the half-open
// probe, it must be settled on every exit path. Handlers defer finish()
// immediately after admission; record() feeds a health-relevant
// outcome, and any path that exits without recording (bad JSON, schema
// mismatch, client disconnect — outcomes that say nothing about the
// model) releases the probe in finish() so the breaker can never wedge
// half-open.
type breakerAdmission struct {
	b       *resilience.Breaker
	probe   bool
	settled bool
}

func (a *breakerAdmission) record(err error) {
	a.settled = true
	a.b.Record(err)
}

func (a *breakerAdmission) finish() {
	if a.probe && !a.settled {
		a.b.Release()
	}
}

// admitModel runs breaker admission for a resolved model version. Shed
// requests are answered with 429 + Retry-After — the breaker's
// remaining cooldown — and ok=false. Admitted requests get an admission
// whose finish() the handler must defer.
func (s *Server) admitModel(w http.ResponseWriter, e *modelEntry) (adm *breakerAdmission, ok bool) {
	admit, probe := e.breaker.Allow()
	if !admit {
		s.met.shed.Add(1)
		writeShed(w, ShedReasonBreaker, e.breaker.RetryAfter(),
			"model %q circuit open after repeated failures", e.id)
		return nil, false
	}
	return &breakerAdmission{b: e.breaker, probe: probe}, true
}

func (s *Server) handleMatch(w http.ResponseWriter, r *http.Request) {
	// Admission order: tenant bucket → breaker (matches take no queue, so
	// no watermark layer here).
	if !s.admitTenant(w, r) {
		return
	}
	e, release, ok := s.resolveModel(w, r)
	if !ok {
		return
	}
	defer release()
	adm, ok := s.admitModel(w, e)
	if !ok {
		return
	}
	defer adm.finish()
	var req matchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding match request: %v", err)
		return
	}
	left, err := toTable("left", req.Left)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	right, err := toTable("right", req.Right)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The artifact's schema is the contract: reject tables that do not
	// reproduce the training-time attribute list.
	if !sameSchema(left.Schema, e.art.Meta.Schema) || !sameSchema(right.Schema, e.art.Meta.Schema) {
		writeError(w, http.StatusBadRequest,
			"schema mismatch: model %q was trained on %v", e.id, e.art.Meta.Schema)
		return
	}

	start := time.Now()
	pairs, candidates, err := e.matcher.Match(r.Context(), left, right)
	if err != nil {
		if ctxErr := r.Context().Err(); ctxErr != nil {
			s.met.timeouts.Add(1)
			adm.record(ctxErr)
			writeError(w, statusFor(ctxErr), "match aborted: %v", ctxErr)
			return
		}
		writeError(w, http.StatusBadRequest, "match: %v", err)
		return
	}
	adm.record(nil)
	resp := matchResponse{
		Pairs:      make([]pairJSON, len(pairs)),
		Candidates: candidates,
		ElapsedMS:  float64(time.Since(start).Microseconds()) / 1e3,
	}
	for i, p := range pairs {
		resp.Pairs[i] = pairJSON{LeftID: p.LeftID, RightID: p.RightID, Confidence: p.Confidence}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	// Admission order: tenant bucket → shed watermark → breaker. The
	// tenant layer is first so a hot tenant is told to back off before it
	// can influence shared-queue or breaker signals; the watermark reads
	// the resolved version's own queue.
	if !s.admitTenant(w, r) {
		return
	}
	e, release, ok := s.resolveModel(w, r)
	if !ok {
		return
	}
	defer release()
	// Load shedding: once the score queue is past the watermark, a new
	// request would only wait out most of its deadline in line — reject
	// it immediately so the client can retry elsewhere.
	if s.cfg.ShedWatermark > 0 && e.pool.depth() >= s.cfg.ShedWatermark {
		s.met.shed.Add(1)
		writeShed(w, ShedReasonShed, time.Second,
			"score queue over watermark (%d queued)", e.pool.depth())
		return
	}
	adm, ok := s.admitModel(w, e)
	if !ok {
		return
	}
	defer adm.finish()
	var req scoreRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding score request: %v", err)
		return
	}
	if len(req.Vectors) == 0 {
		writeError(w, http.StatusBadRequest, "no vectors in score request")
		return
	}
	vecs := make([]feature.Vector, len(req.Vectors))
	for i, v := range req.Vectors {
		if len(v) != e.art.Dim {
			writeError(w, http.StatusBadRequest,
				"vector %d has %d dims, model %q expects %d", i, len(v), e.id, e.art.Dim)
			return
		}
		vecs[i] = v
	}

	job := &scoreJob{ctx: r.Context(), vecs: vecs, out: make(chan scoreResult, 1)}
	if err := e.pool.submit(job); err != nil {
		if errors.Is(err, ErrDraining) {
			s.met.rejected.Add(1)
		} else {
			s.met.timeouts.Add(1)
		}
		writeError(w, statusFor(err), "score rejected: %v", err)
		return
	}
	select {
	case res := <-job.out:
		if res.err != nil {
			if errors.Is(res.err, context.DeadlineExceeded) {
				s.met.timeouts.Add(1)
			}
			if statusFor(res.err) == http.StatusInternalServerError ||
				errors.Is(res.err, context.DeadlineExceeded) {
				adm.record(res.err)
			}
			writeError(w, statusFor(res.err), "score failed: %v", res.err)
			return
		}
		// Finite features can still overflow a learner's arithmetic
		// (1e308 and -1e308 sum to NaN), and JSON has no encoding for a
		// non-finite score: reject the vector rather than answer 200
		// with an empty body.
		for i, sc := range res.scores {
			if math.IsNaN(sc) || math.IsInf(sc, 0) {
				writeError(w, http.StatusBadRequest,
					"vector %d has no finite score under model %q; features outside the model's range overflow it", i, e.id)
				return
			}
		}
		adm.record(nil)
		resp := scoreResponse{Scores: res.scores, Matches: make([]bool, len(vecs))}
		for i, v := range vecs {
			resp.Matches[i] = e.art.Learner.Predict(v)
		}
		writeJSON(w, http.StatusOK, resp)
	case <-r.Context().Done():
		s.met.timeouts.Add(1)
		writeError(w, statusFor(r.Context().Err()), "score aborted: %v", r.Context().Err())
	}
}

// Registry routes.

// modelsResponse is the GET /v1/models body.
type modelsResponse struct {
	Active string      `json:"active"`
	Models []ModelInfo `json:"models"`
}

func (s *Server) handleModelsList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, modelsResponse{
		Active: s.models.Current(),
		Models: s.models.List(),
	})
}

// publishResponse is the POST /v1/models body.
type publishResponse struct {
	ID           string `json:"id"`
	Kind         string `json:"kind"`
	Dim          int    `json:"dim"`
	Activated    bool   `json:"activated"`
	Previous     string `json:"previous,omitempty"`
	PersistError string `json:"persist_error,omitempty"`
}

// handleModelPublish is the admin hot-swap entry point: the request
// body is a model artifact (alem.SaveModel output), ?id= names the
// version, ?activate=true flips the default alias in the same call. A
// body that fails validation is a rejected swap: 400, nothing applied,
// the serving version untouched, /healthz degraded until the next
// successful activation.
func (s *Server) handleModelPublish(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "" {
		writeError(w, http.StatusBadRequest, "missing id query parameter (POST /v1/models?id=v2)")
		return
	}
	// Buffer the body (already capped by MaxBytesReader): validation
	// consumes it once and ModelsDir persistence needs the same bytes.
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading artifact body: %v", err)
		return
	}
	art, err := s.models.PublishReader(id, bytes.NewReader(body))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp := publishResponse{ID: id, Kind: string(art.Kind), Dim: art.Dim}
	if s.cfg.ModelsDir != "" {
		// Persistence is best-effort and never un-publishes: the version
		// is serving from memory either way, and the response says
		// whether a restart will see it.
		err := resilience.WriteFileAtomic(filepath.Join(s.cfg.ModelsDir, id+".json"),
			func(f io.Writer) error { _, err := f.Write(body); return err })
		if err != nil {
			resp.PersistError = err.Error()
		}
	}
	if activate, _ := strconv.ParseBool(r.URL.Query().Get("activate")); activate {
		prev, err := s.models.Activate(id)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "published but failed to activate: %v", err)
			return
		}
		resp.Activated, resp.Previous = true, prev
	}
	writeJSON(w, http.StatusCreated, resp)
}

func (s *Server) handleModelActivate(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	prev, err := s.models.Activate(id)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"active": id, "previous": prev})
}

func (s *Server) handleModelRemove(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.models.Remove(id); err != nil {
		status := http.StatusConflict
		if errors.Is(err, ErrUnknownModel) {
			status = http.StatusNotFound
		}
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"removed": id})
}

// handleHealthz reports liveness plus degradation, now per model: the
// top-level status is "degraded" (not dead — the response stays 200 so
// orchestrators keep the process in rotation) while draining, while the
// last swap was rejected, while the active version's breaker is away
// from closed, or while no version is active at all. The models map
// carries each version's own readiness so dashboards can see a sick
// canary next to a healthy active version.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	activeID := s.models.Current()
	swapErr := s.models.LastSwapError()
	infos := s.models.List()
	models := make(map[string]any, len(infos))
	var activeInfo *ModelInfo
	for i := range infos {
		in := infos[i]
		models[in.ID] = map[string]any{
			"kind":      in.Kind,
			"dim":       in.Dim,
			"active":    in.Active,
			"breaker":   in.Breaker,
			"in_flight": in.InFlight,
		}
		if in.Active {
			activeInfo = &infos[i]
		}
	}
	status := "ok"
	degraded := s.draining.Load() || swapErr != nil || activeInfo == nil ||
		activeInfo.Breaker != resilience.BreakerClosed.String()
	if degraded {
		status = "degraded"
	}
	body := map[string]any{
		"status":    status,
		"active":    activeID,
		"models":    models,
		"in_flight": s.met.inFlight.Load(),
		"draining":  s.draining.Load(),
	}
	if swapErr != nil {
		body["last_swap_error"] = swapErr.Error()
	}
	// Legacy top-level identity of the active version, kept for scrapers
	// predating the registry.
	if e := s.models.current.Load(); e != nil {
		body["model"] = e.art.Kind
		body["dim"] = e.art.Dim
		body["schema"] = e.art.Meta.Schema
		body["features"] = e.art.Meta.Features.String()
		body["breaker"] = e.breaker.State().String()
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.met.reg.WritePrometheus(w)
}

func toTable(name string, t tableJSON) (*dataset.Table, error) {
	if len(t.Schema) == 0 {
		return nil, fmt.Errorf("%s table has no schema", name)
	}
	out := &dataset.Table{Name: name, Schema: t.Schema, Rows: make([]dataset.Record, len(t.Rows))}
	if t.Name != "" {
		out.Name = t.Name
	}
	for i, r := range t.Rows {
		if len(r.Values) != len(t.Schema) {
			return nil, fmt.Errorf("%s table row %d has %d values for %d schema attributes",
				name, i, len(r.Values), len(t.Schema))
		}
		out.Rows[i] = dataset.Record{ID: r.ID, Values: r.Values}
	}
	return out, nil
}

func sameSchema(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
