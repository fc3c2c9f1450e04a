package serve

// Overload-protection tests: circuit breaker, load shedding, panic
// containment and degraded health reporting. The chaos-flavored ones
// carry Chaos in their names so `go test -run Chaos ./...` picks them up
// alongside the core engine's kill/resume suite.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/alem/alem/internal/core"
	"github.com/alem/alem/internal/feature"
	"github.com/alem/alem/internal/model"
	"github.com/alem/alem/internal/resilience"
)

// panicLearner blows up on every prediction — the pathological model the
// containment and breaker paths exist for.
type panicLearner struct{ dim int }

func (p panicLearner) Name() string                   { return "panic" }
func (p panicLearner) Train([]feature.Vector, []bool) {}
func (p panicLearner) Predict(feature.Vector) bool    { panic("model exploded") }
func (p panicLearner) Dim() int                       { return p.dim }

func artifactFor(l core.Learner) *model.Artifact {
	return &model.Artifact{
		Kind:    model.Kind(l.Name()),
		Learner: l,
		Meta:    model.Meta{Schema: []string{"a"}},
		Dim:     3,
	}
}

func scoreOnce(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	return postJSON(t, url+"/v1/score", scoreRequest{Vectors: [][]float64{{1, 2, 3}}})
}

// TestChaosWorkerPanicContained pins the worker containment path: a
// learner that panics while scoring fails its own request with 500 and
// leaves the server able to answer the next request — the process does
// not die with the worker.
func TestChaosWorkerPanicContained(t *testing.T) {
	s := New(artifactFor(panicLearner{dim: 3}), Config{Linger: -1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	for i := 0; i < 3; i++ {
		resp, raw := scoreOnce(t, ts.URL)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("panicking score %d: status %d, want 500: %s", i, resp.StatusCode, raw)
		}
		if !strings.Contains(string(raw), "panic") {
			t.Errorf("panicking score %d: body %q does not mention the panic", i, raw)
		}
	}
	// The server is still alive and serving non-model routes.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz after worker panics: %v", err)
	}
	resp.Body.Close()
}

// TestChaosHandlerPanicRecovered pins the recover middleware: a panic in
// the handler goroutine itself turns into a 500 with the panic counter
// and breaker fed, not a torn connection. /v1/match runs Matcher.Match
// in the handler goroutine, so the learner's panic fires there rather
// than in a score worker. The learner reports width 0, so the matcher's
// dimension check lets it through to scoring.
func TestChaosHandlerPanicRecovered(t *testing.T) {
	s := New(artifactFor(panicLearner{}), Config{Linger: -1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	tbl := tableJSON{Schema: []string{"a"}, Rows: []rowJSON{{ID: "r0", Values: []string{"acme widget"}}}}
	resp, raw := postJSON(t, ts.URL+"/v1/match", matchRequest{Left: tbl, Right: tbl})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", resp.StatusCode, raw)
	}
	if s.met.panics.Value() != 1 {
		t.Errorf("panic counter = %d, want 1", s.met.panics.Value())
	}
	// The panic is visible on /metrics.
	mresp, mraw := metricsText(t, ts.URL)
	mresp.Body.Close()
	if !strings.Contains(mraw, "alem_http_panics_total 1") {
		t.Errorf("/metrics missing panic counter:\n%s", grepLines(mraw, "panic"))
	}
}

// waitUntil polls cond until it holds or the deadline passes. It is
// the deflaked replacement for wall-clock sleeps: on 1-CPU containers
// a fixed sleep races the scheduler, while polling an observable
// condition cannot.
func waitUntil(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func metricsText(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(raw)
}

func grepLines(s, substr string) string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

func healthzBody(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body
}

// TestChaosBreakerOpensShedsAndRecovers drives the full breaker arc: a
// panicking model trips it after BreakerThreshold consecutive failures,
// open-circuit requests shed instantly with 429 + Retry-After while
// /healthz reports degraded, and after the cooldown a healthy probe
// closes it again.
func TestChaosBreakerOpensShedsAndRecovers(t *testing.T) {
	s, ts := newTestServer(t, Config{
		BreakerThreshold: 3, BreakerCooldown: 50 * time.Millisecond, Linger: -1,
	})

	// Trip the breaker the way production would: consecutive model
	// failures. Feeding Record directly keeps the test deterministic.
	for i := 0; i < 3; i++ {
		s.models.activeBreaker().Record(errors.New("model failure"))
	}

	// Both model routes shed with 429 and a positive Retry-After, and do
	// so without touching the model.
	for _, route := range []string{"/v1/score", "/v1/match"} {
		var resp *http.Response
		var raw []byte
		if route == "/v1/score" {
			resp, raw = scoreOnce(t, ts.URL)
		} else {
			resp, raw = postJSON(t, ts.URL+route, matchRequest{})
		}
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("%s with open breaker: status %d, want 429: %s", route, resp.StatusCode, raw)
		}
		ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil || ra < 1 {
			t.Errorf("%s Retry-After = %q, want a positive integer", route, resp.Header.Get("Retry-After"))
		}
	}
	if body := healthzBody(t, ts.URL); body["status"] != "degraded" || body["breaker"] != "open" {
		t.Errorf("healthz with open breaker = %v, want degraded/open", body)
	}
	mresp, mraw := metricsText(t, ts.URL)
	mresp.Body.Close()
	if !strings.Contains(mraw, "alem_breaker_state 1") {
		t.Errorf("/metrics breaker gauge:\n%s", grepLines(mraw, "breaker"))
	}
	if !strings.Contains(mraw, "alem_breaker_opens_total 1") {
		t.Errorf("/metrics breaker opens:\n%s", grepLines(mraw, "breaker"))
	}
	if !strings.Contains(mraw, "alem_http_requests_shed_total 2") {
		t.Errorf("/metrics shed counter:\n%s", grepLines(mraw, "shed"))
	}

	// Cooldown expires; the healthy model answers the probe and the
	// circuit closes. Polling the breaker's own clock instead of sleeping
	// a fixed margin keeps this robust on slow 1-CPU containers.
	waitUntil(t, 5*time.Second, func() bool { return s.models.activeBreaker().RetryAfter() == 0 }, "breaker cooldown")
	_, X := beerArtifact(t)
	resp, raw := postJSON(t, ts.URL+"/v1/score", scoreRequest{Vectors: [][]float64{X[0]}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("probe after cooldown: status %d, want 200: %s", resp.StatusCode, raw)
	}
	if body := healthzBody(t, ts.URL); body["status"] != "ok" || body["breaker"] != "closed" {
		t.Errorf("healthz after recovery = %v, want ok/closed", body)
	}
}

// TestChaosClientErrorProbeDoesNotWedgeBreaker pins the probe-leak fix
// end-to-end: when the half-open probe slot goes to a request that dies
// on a client error (bad JSON — an outcome that says nothing about the
// model), the probe must be released, a later healthy request must be
// admitted as a fresh probe, and its success must close the circuit.
// Before the fix, the unsettled probe shed every request until restart.
func TestChaosClientErrorProbeDoesNotWedgeBreaker(t *testing.T) {
	s, ts := newTestServer(t, Config{
		BreakerThreshold: 1, BreakerCooldown: 10 * time.Millisecond, Linger: -1,
	})
	s.models.activeBreaker().Record(errors.New("model failure"))
	waitUntil(t, 5*time.Second, func() bool { return s.models.activeBreaker().RetryAfter() == 0 }, "breaker cooldown")

	// The probe slot goes to a malformed request.
	resp, err := http.Post(ts.URL+"/v1/score", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed probe request: status %d, want 400", resp.StatusCode)
	}

	// The next healthy request must get the freed probe slot, not a 429.
	_, X := beerArtifact(t)
	okResp, raw := postJSON(t, ts.URL+"/v1/score", scoreRequest{Vectors: [][]float64{X[0]}})
	if okResp.StatusCode != http.StatusOK {
		t.Fatalf("request after client-error probe: status %d, want 200 (breaker wedged?): %s",
			okResp.StatusCode, raw)
	}
	if body := healthzBody(t, ts.URL); body["breaker"] != "closed" {
		t.Errorf("healthz breaker = %v after successful probe, want closed", body["breaker"])
	}
}

// TestPanicOnNonModelRouteLeavesBreakerAlone: panics outside match/score
// are counted but must not trip the model circuit breaker — a bug in
// /healthz says nothing about the model and must not shed healthy
// traffic.
func TestPanicOnNonModelRouteLeavesBreakerAlone(t *testing.T) {
	s := New(artifactFor(panicLearner{dim: 3}), Config{BreakerThreshold: 1, Linger: -1})
	t.Cleanup(s.Close)
	h := s.instrument(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("route exploded")
	}))

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking /healthz: status %d, want 500", rec.Code)
	}
	if s.met.panics.Value() != 1 {
		t.Errorf("panic counter = %d, want 1", s.met.panics.Value())
	}
	if state := s.models.activeBreaker().State(); state != resilience.BreakerClosed {
		t.Fatalf("breaker %v after non-model panic, want closed", state)
	}

	// The same panic on a model route still feeds the breaker.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/score", strings.NewReader("{}")))
	if state := s.models.activeBreaker().State(); state != resilience.BreakerOpen {
		t.Fatalf("breaker %v after model-route panic at threshold 1, want open", state)
	}
}

// TestChaosBreakerOpenUnderLoadNeverHangs is the acceptance check for
// overload protection: with the breaker open, a burst of concurrent
// clients must all get fast 429s — no request may hang waiting on the
// dead model.
func TestChaosBreakerOpenUnderLoadNeverHangs(t *testing.T) {
	s, ts := newTestServer(t, Config{
		BreakerThreshold: 1, BreakerCooldown: time.Hour, Workers: 2, Linger: -1,
	})
	s.models.activeBreaker().Record(errors.New("model failure"))

	const clients = 32
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			raw, _ := json.Marshal(scoreRequest{Vectors: [][]float64{{1, 2, 3}}})
			cl := &http.Client{Timeout: 5 * time.Second}
			resp, err := cl.Post(ts.URL+"/v1/score", "application/json", bytes.NewReader(raw))
			if err != nil {
				errs <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusTooManyRequests {
				errs <- fmt.Errorf("status %d, want 429", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("shedding a 32-client burst took %s; open-breaker rejects must be fast", elapsed)
	}
	if s.met.shed.Value() != clients {
		t.Errorf("shed counter = %d, want %d", s.met.shed.Value(), clients)
	}
}

// TestChaosShedWatermark pins queue-depth load shedding without racing
// the scheduler: the single worker is held at the learner by a gate and
// batches never coalesce (MaxBatch 1), so the stages downstream of the
// intake queue hold at most three jobs and the queue itself at most
// QueueDepth — posting more than that total MUST shed by pigeonhole,
// no matter how the posts interleave. Sheds answer immediately (the
// gate never holds them), so the test waits for one, then opens the
// gate and verifies every admitted request completes.
func TestChaosShedWatermark(t *testing.T) {
	gl := newGatedLearner(3)
	s := New(artifactFor(gl), Config{
		Workers: 1, MaxBatch: 1, QueueDepth: 8, ShedWatermark: 1, Linger: -1,
		RequestTimeout: 20 * time.Second,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	// Registered after ts/s cleanup so it runs first: the drain in
	// s.Close needs the gate open.
	t.Cleanup(func() {
		select {
		case <-gl.release:
		default:
			close(gl.release)
		}
	})

	type outcome struct {
		code       int
		retryAfter int
		reason     string
		body       string
	}
	// 13 posts > 3 in-flight stages + 8 queue slots: at least one sheds.
	const total = 13
	results := make(chan outcome, total)
	post := func() {
		raw, _ := json.Marshal(scoreRequest{Vectors: [][]float64{{1, 2, 3}}})
		resp, err := http.Post(ts.URL+"/v1/score", "application/json", bytes.NewReader(raw))
		if err != nil {
			results <- outcome{code: -1, body: err.Error()}
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		ra, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
		var eresp errorResponse
		json.Unmarshal(body, &eresp)
		results <- outcome{code: resp.StatusCode, retryAfter: ra, reason: eresp.Reason, body: string(body)}
	}

	go post()
	<-gl.started // the worker is now provably inside the learner
	for i := 1; i < total; i++ {
		go post()
		time.Sleep(2 * time.Millisecond) // let each submit land before the next checks
	}

	var sheds, served []outcome
	record := func(r outcome) {
		if r.code == http.StatusTooManyRequests {
			sheds = append(sheds, r)
		} else {
			served = append(served, r)
		}
	}
	deadline := time.After(15 * time.Second)
	for len(sheds) == 0 {
		select {
		case r := <-results:
			record(r)
		case <-deadline:
			t.Fatal("no request shed despite queue over watermark")
		}
	}

	// Open the gate: every admitted request completes normally.
	close(gl.release)
	for len(sheds)+len(served) < total {
		select {
		case r := <-results:
			record(r)
		case <-time.After(15 * time.Second):
			t.Fatal("requests unanswered after gate release")
		}
	}
	for _, r := range served {
		if r.code != http.StatusOK {
			t.Errorf("admitted request finished %d, want 200: %s", r.code, r.body)
		}
	}
	for _, r := range sheds {
		if r.retryAfter < 1 {
			t.Errorf("shed Retry-After = %d, want a positive integer", r.retryAfter)
		}
		if r.reason != ShedReasonShed {
			t.Errorf("shed reason = %q, want %q (body %s)", r.reason, ShedReasonShed, r.body)
		}
	}
	if got := s.met.shed.Value(); got != int64(len(sheds)) {
		t.Errorf("shed counter = %d, want %d", got, len(sheds))
	}
}

// TestChaosDrainWithBreakerOpen runs graceful shutdown while the breaker
// is open: the drain must complete cleanly (no deadlock between the
// shedding fast-path and the pool drain) and report degraded until the
// end.
func TestChaosDrainWithBreakerOpen(t *testing.T) {
	s := New(slowArtifact(50*time.Millisecond), Config{
		DrainTimeout: 5 * time.Second, BreakerThreshold: 1, BreakerCooldown: time.Hour, Linger: -1,
	})
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.ListenAndServe(ctx) }()
	<-s.Ready()
	base := "http://" + s.Addr()

	s.models.activeBreaker().Record(errors.New("model failure"))
	resp, raw := postJSON(t, base+"/v1/score", scoreRequest{Vectors: [][]float64{{1, 2, 3}}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("pre-drain shed: status %d, want 429: %s", resp.StatusCode, raw)
	}
	if body := healthzBody(t, base); body["status"] != "degraded" {
		t.Fatalf("healthz = %v, want degraded with open breaker", body)
	}

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("drain with open breaker returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drain with open breaker deadlocked")
	}
}
