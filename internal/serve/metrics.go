package serve

import (
	"strconv"
	"sync/atomic"

	"github.com/alem/alem/internal/obs"
)

// latencyBuckets are the histogram upper bounds in seconds, chosen to
// resolve both sub-millisecond score calls and multi-second match calls.
var latencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10,
}

// metrics is the server's observability surface, backed by the shared
// internal/obs registry and rendered on /metrics in the Prometheus text
// exposition format. The series names predate the registry and are part
// of the scrape contract — TestMetricsEndpoint pins every one — so the
// migration kept each name and label set stable while replacing the
// hand-rolled rendering. Everything stays lock-free on the hot path;
// the registry lock only guards lazy creation of per-route series.
type metrics struct {
	reg      *obs.Registry
	requests *obs.CounterVec   // request counts by route and status
	latency  *obs.HistogramVec // request latency by route
	inFlight atomic.Int64      // gauge source; also read by healthz and drain
	rejected *obs.Counter      // requests refused while draining
	timeouts *obs.Counter      // requests that hit their deadline
	shed     *obs.Counter      // requests shed with 429 (any reason)
	tenant   *obs.Counter      // 429s issued by per-tenant admission
	panics   *obs.Counter      // handler panics contained by the recover middleware
}

func newMetrics() *metrics {
	reg := obs.NewRegistry()
	m := &metrics{
		reg: reg,
		requests: reg.CounterVec("alem_http_requests_total",
			"Requests served, by route and status code.", "route", "code"),
		latency: reg.HistogramVec("alem_http_request_duration_seconds",
			"Request latency, by route.", latencyBuckets, "route"),
		rejected: reg.Counter("alem_http_requests_rejected_total",
			"Requests refused while draining."),
		timeouts: reg.Counter("alem_http_request_timeouts_total",
			"Requests that exceeded their deadline."),
		shed: reg.Counter("alem_http_requests_shed_total",
			"Requests shed with 429 (tenant limit, queue over watermark, or breaker open)."),
		tenant: reg.Counter("alem_http_requests_tenant_limited_total",
			"Requests shed with 429 by per-tenant token-bucket admission."),
		panics: reg.Counter("alem_http_panics_total",
			"Handler panics contained by the recover middleware."),
	}
	reg.GaugeFunc("alem_http_in_flight_requests",
		"Requests currently being served.",
		func() float64 { return float64(m.inFlight.Load()) })
	return m
}

func (m *metrics) observe(route string, code int, seconds float64) {
	m.requests.With(route, strconv.Itoa(code)).Inc()
	m.latency.With(route).Observe(seconds)
}
