package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/alem/alem/internal/blocking"
	"github.com/alem/alem/internal/core"
	"github.com/alem/alem/internal/dataset"
	"github.com/alem/alem/internal/feature"
	"github.com/alem/alem/internal/linear"
	"github.com/alem/alem/internal/match"
	"github.com/alem/alem/internal/model"
)

// beerArtifact trains an SVM on the beer dataset once and shares the
// resulting artifact (and some labeled vectors) across tests.
var (
	artOnce sync.Once
	artSVM  *model.Artifact
	artVecs []feature.Vector
)

func beerArtifact(tb testing.TB) (*model.Artifact, []feature.Vector) {
	tb.Helper()
	artOnce.Do(func() {
		d, err := dataset.Load("beer", 1.0, 21)
		if err != nil {
			panic(err)
		}
		res, err := blocking.Generate(context.Background(),
			blocking.NewCandidateIndex(d, blocking.IndexOptions{}))
		if err != nil {
			panic(err)
		}
		ext := feature.NewExtractor(d.Left.Schema)
		X := ext.ExtractPairs(d, res.Pairs)
		y := make([]bool, len(res.Pairs))
		for i, p := range res.Pairs {
			y[i] = d.IsMatch(p)
		}
		svm := linear.NewSVM(21)
		svm.Train(X, y)
		var buf bytes.Buffer
		if err := model.Save(&buf, svm, model.Meta{
			Schema: d.Left.Schema, BlockThreshold: d.BlockThreshold, Dataset: "beer",
		}); err != nil {
			panic(err)
		}
		artSVM, err = model.Load(&buf)
		if err != nil {
			panic(err)
		}
		artVecs = X
	})
	return artSVM, artVecs
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	art, _ := beerArtifact(t)
	s := New(art, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ok" || body["model"] != "linear-svm" {
		t.Errorf("healthz body %v", body)
	}
}

func TestScoreHandler(t *testing.T) {
	art, X := beerArtifact(t)
	_, ts := newTestServer(t, Config{})
	req := scoreRequest{Vectors: [][]float64{X[0], X[1], X[2]}}
	resp, raw := postJSON(t, ts.URL+"/v1/score", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("score status %d: %s", resp.StatusCode, raw)
	}
	var out scoreResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Scores) != 3 || len(out.Matches) != 3 {
		t.Fatalf("score response %+v", out)
	}
	for i := 0; i < 3; i++ {
		want := match.Score(art.Learner, X[i])
		if diff := out.Scores[i] - want; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("score %d = %v, want %v", i, out.Scores[i], want)
		}
		if out.Matches[i] != art.Learner.Predict(X[i]) {
			t.Errorf("match %d = %v, want %v", i, out.Matches[i], art.Learner.Predict(X[i]))
		}
	}
}

func TestScoreMalformed(t *testing.T) {
	art, _ := beerArtifact(t)
	_, ts := newTestServer(t, Config{})

	resp, err := http.Post(ts.URL+"/v1/score", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body status %d, want 400", resp.StatusCode)
	}

	resp, _ = postJSON(t, ts.URL+"/v1/score", scoreRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty vectors status %d, want 400", resp.StatusCode)
	}

	resp, raw := postJSON(t, ts.URL+"/v1/score", scoreRequest{Vectors: [][]float64{{1, 2}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("wrong-dim status %d, want 400", resp.StatusCode)
	}
	if !bytes.Contains(raw, []byte(fmt.Sprintf("expects %d", art.Dim))) {
		t.Errorf("wrong-dim error %s does not name the model dim", raw)
	}

	// Finite features whose weighted sum overflows to NaN: JSON cannot
	// encode the score, so the answer is a 400, not a 200 with an empty
	// body.
	resp, raw = postJSON(t, ts.URL+"/v1/score", scoreRequest{Vectors: [][]float64{make([]float64, art.Dim), overflowVector(art.Dim)}})
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(raw, []byte("vector 1 has no finite score")) {
		t.Errorf("overflowing vector: status %d, body %s; want 400 naming vector 1", resp.StatusCode, raw)
	}

	// Wrong method on a POST route.
	resp, err = http.Get(ts.URL + "/v1/score")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/score status %d, want 405", resp.StatusCode)
	}
}

// overflowVector returns dim finite features, alternately 1e308 and
// -1e308, whose weighted sum overflows a linear learner to NaN.
func overflowVector(dim int) []float64 {
	v := make([]float64, dim)
	for i := range v {
		v[i] = 1e308
		if i%2 == 1 {
			v[i] = -1e308
		}
	}
	return v
}

func tableToJSON(tbl *dataset.Table) tableJSON {
	out := tableJSON{Name: tbl.Name, Schema: tbl.Schema, Rows: make([]rowJSON, len(tbl.Rows))}
	for i, r := range tbl.Rows {
		out.Rows[i] = rowJSON{ID: r.ID, Values: r.Values}
	}
	return out
}

func TestMatchHandler(t *testing.T) {
	art, _ := beerArtifact(t)
	_, ts := newTestServer(t, Config{})
	fresh, err := dataset.Load("beer", 1.0, 22)
	if err != nil {
		t.Fatal(err)
	}
	req := matchRequest{Left: tableToJSON(fresh.Left), Right: tableToJSON(fresh.Right)}
	resp, raw := postJSON(t, ts.URL+"/v1/match", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("match status %d: %s", resp.StatusCode, raw)
	}
	var out matchResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Candidates == 0 || len(out.Pairs) == 0 {
		t.Fatalf("match response predicted %d of %d candidates", len(out.Pairs), out.Candidates)
	}
	for _, p := range out.Pairs {
		if p.LeftID == "" || p.RightID == "" || p.Confidence < 0 || p.Confidence > 1 {
			t.Fatalf("bad pair %+v", p)
		}
	}
	_ = art
}

func TestMatchSchemaMismatch(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	bad := tableJSON{Schema: []string{"not", "the", "schema"},
		Rows: []rowJSON{{ID: "x", Values: []string{"a", "b", "c"}}}}
	resp, raw := postJSON(t, ts.URL+"/v1/match", matchRequest{Left: bad, Right: bad})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("schema mismatch status %d, want 400: %s", resp.StatusCode, raw)
	}

	// Row arity must match the schema.
	art, _ := beerArtifact(t)
	short := tableJSON{Schema: art.Meta.Schema, Rows: []rowJSON{{ID: "x", Values: []string{"only-one"}}}}
	resp, _ = postJSON(t, ts.URL+"/v1/match", matchRequest{Left: short, Right: short})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("short row status %d, want 400", resp.StatusCode)
	}
}

// slowLearner stalls every prediction; deadline and drain tests use it
// to hold requests in flight deterministically.
type slowLearner struct {
	delay time.Duration
	dim   int
}

func (s slowLearner) Name() string { return "slow" }
func (s slowLearner) Train(X []feature.Vector, y []bool) {
}
func (s slowLearner) Predict(x feature.Vector) bool {
	time.Sleep(s.delay)
	return true
}
func (s slowLearner) PredictAll(X []feature.Vector) []bool {
	out := make([]bool, len(X))
	for i := range X {
		out[i] = s.Predict(X[i])
	}
	return out
}
func (s slowLearner) Dim() int { return s.dim }

func slowArtifact(delay time.Duration) *model.Artifact {
	return &model.Artifact{
		Kind:    "slow",
		Learner: slowLearner{delay: delay, dim: 3},
		Meta:    model.Meta{Schema: []string{"a"}},
		Dim:     3,
	}
}

func TestScoreDeadlineExceeded(t *testing.T) {
	s := New(slowArtifact(300*time.Millisecond), Config{RequestTimeout: 30 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	resp, raw := postJSON(t, ts.URL+"/v1/score", scoreRequest{Vectors: [][]float64{{1, 2, 3}}})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline status %d, want 504: %s", resp.StatusCode, raw)
	}
	if s.met.timeouts.Value() == 0 {
		t.Error("timeout counter not incremented")
	}
}

// TestConcurrentScore drives 64 concurrent score requests through the
// batching pool; run under -race this is the server's concurrency
// soundness check.
func TestConcurrentScore(t *testing.T) {
	art, X := beerArtifact(t)
	_, ts := newTestServer(t, Config{Workers: 4, MaxBatch: 32, Linger: time.Millisecond})
	want := match.Score(art.Learner, X[0])

	const clients = 64
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			raw, _ := json.Marshal(scoreRequest{Vectors: [][]float64{X[0], X[1]}})
			resp, err := http.Post(ts.URL+"/v1/score", "application/json", bytes.NewReader(raw))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			var out scoreResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				errs <- err
				return
			}
			if len(out.Scores) != 2 {
				errs <- fmt.Errorf("got %d scores", len(out.Scores))
				return
			}
			if diff := out.Scores[0] - want; diff > 1e-12 || diff < -1e-12 {
				errs <- fmt.Errorf("score %v, want %v", out.Scores[0], want)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// gatedLearner blocks every prediction on an explicit gate: started is
// closed when the first prediction enters the learner, and predictions
// finish only once release is closed. Drain tests coordinate on these
// channels instead of wall-clock sleeps, so they hold on 1-CPU
// containers where "sleep long enough" margins routinely flake.
type gatedLearner struct {
	dim     int
	once    *sync.Once
	started chan struct{}
	release chan struct{}
}

func newGatedLearner(dim int) gatedLearner {
	return gatedLearner{
		dim:     dim,
		once:    &sync.Once{},
		started: make(chan struct{}),
		release: make(chan struct{}),
	}
}

func (g gatedLearner) Name() string                       { return "gated" }
func (g gatedLearner) Train(X []feature.Vector, y []bool) {}
func (g gatedLearner) Predict(x feature.Vector) bool {
	g.once.Do(func() { close(g.started) })
	<-g.release
	return true
}
func (g gatedLearner) PredictAll(X []feature.Vector) []bool {
	out := make([]bool, len(X))
	for i := range X {
		out[i] = g.Predict(X[i])
	}
	return out
}
func (g gatedLearner) Dim() int { return g.dim }

// TestLingerDefaultsIdempotent pins withDefaults as a fixed point: New
// and NewMulti apply it and the registry applies it again, so a second
// pass must not turn a disabled window into the 2ms default.
func TestLingerDefaultsIdempotent(t *testing.T) {
	for _, l := range []time.Duration{-1, 0, time.Millisecond} {
		once := Config{Linger: l}.withDefaults()
		if twice := once.withDefaults(); twice != once {
			t.Errorf("Linger %v: withDefaults twice = %+v, once = %+v", l, twice, once)
		}
	}
	s := New(artifactFor(slowLearner{dim: 3}), Config{Linger: -1})
	t.Cleanup(s.Close)
	e, release, err := s.models.acquire("")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	// collect starts its fill timer only for a positive linger.
	if e.pool.linger > 0 {
		t.Errorf("Config{Linger: -1} built a pool with a %v fill window", e.pool.linger)
	}
}

// TestShutdownDrain holds a request in flight at the learner, triggers
// shutdown while it is provably mid-work, and verifies the request
// completes before ListenAndServe returns and that the server refuses
// work afterwards. Every step synchronizes on a channel — request at
// learner, drain begun, learner released — so there is no timing margin
// to mis-tune.
func TestShutdownDrain(t *testing.T) {
	gl := newGatedLearner(3)
	drainStarted := make(chan struct{})
	s := New(&model.Artifact{
		Kind:    "gated",
		Learner: gl,
		Meta:    model.Meta{Schema: []string{"a"}},
		Dim:     3,
	}, Config{
		RequestTimeout: 5 * time.Second, DrainTimeout: 5 * time.Second, Linger: -1,
	}, core.ObserverFunc(func(e core.Event) {
		if _, ok := e.(DrainStart); ok {
			close(drainStarted)
		}
	}))
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.ListenAndServe(ctx) }()
	<-s.Ready()
	base := "http://" + s.Addr()

	type result struct {
		status int
		err    error
	}
	inflight := make(chan result, 1)
	go func() {
		raw, _ := json.Marshal(scoreRequest{Vectors: [][]float64{{1, 2, 3}}})
		resp, err := http.Post(base+"/v1/score", "application/json", bytes.NewReader(raw))
		if err != nil {
			inflight <- result{err: err}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		inflight <- result{status: resp.StatusCode}
	}()

	// The request is at the learner; pull the plug, and only let the
	// learner finish once the drain has actually begun.
	<-gl.started
	cancel()
	<-drainStarted
	close(gl.release)

	res := <-inflight
	if res.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", res.err)
	}
	if res.status != http.StatusOK {
		t.Fatalf("in-flight request status %d during drain, want 200", res.status)
	}
	if err := <-served; err != nil {
		t.Fatalf("ListenAndServe returned %v after drain", err)
	}
	// The drained server must not accept new work.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("server still accepting connections after shutdown")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, X := beerArtifact(t)
	s, ts := newTestServer(t, Config{})
	postJSON(t, ts.URL+"/v1/score", scoreRequest{Vectors: [][]float64{X[0]}})
	fresh, err := dataset.Load("beer", 1.0, 23)
	if err != nil {
		t.Fatal(err)
	}
	postJSON(t, ts.URL+"/v1/match", matchRequest{Left: tableToJSON(fresh.Left), Right: tableToJSON(fresh.Right)})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	body := string(raw)
	for _, series := range []string{
		`alem_http_requests_total{route="/v1/score",code="200"} 1`,
		`alem_http_request_duration_seconds_bucket{route="/v1/match",le="+Inf"} 1`,
		`alem_http_request_duration_seconds_count{route="/v1/score"} 1`,
		"alem_http_in_flight_requests 1", // the /metrics request itself
		"alem_score_requests_total 1",
		"alem_score_batches_total 1",
		"alem_score_vectors_total 1",
		"alem_matcher_extractor_reuse_misses_total 1",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("metrics output missing %q\n%s", series, body)
		}
	}
	_ = s
}

// TestMetricsNamesStable pins the full scrape vocabulary: every metric
// family the hand-rolled renderer used to emit must survive the
// migration onto the internal/obs registry with its name and TYPE
// unchanged — dashboards and alert rules depend on these strings.
func TestMetricsNamesStable(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	body := string(raw)
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	for _, typeLine := range []string{
		"# TYPE alem_http_requests_total counter",
		"# TYPE alem_http_request_duration_seconds histogram",
		"# TYPE alem_http_in_flight_requests gauge",
		"# TYPE alem_http_requests_rejected_total counter",
		"# TYPE alem_http_request_timeouts_total counter",
		"# TYPE alem_http_requests_shed_total counter",
		"# TYPE alem_http_requests_tenant_limited_total counter",
		"# TYPE alem_http_panics_total counter",
		"# TYPE alem_breaker_state gauge",
		"# TYPE alem_breaker_opens_total counter",
		"# TYPE alem_models_loaded gauge",
		"# TYPE alem_model_swaps_total counter",
		"# TYPE alem_model_swap_failures_total counter",
		"# TYPE alem_score_requests_total counter",
		"# TYPE alem_score_batches_total counter",
		"# TYPE alem_score_vectors_total counter",
		"# TYPE alem_score_batch_reuse_rate gauge",
		"# TYPE alem_matcher_extractor_reuse_hits_total counter",
		"# TYPE alem_matcher_extractor_reuse_misses_total counter",
		"# TYPE alem_blocking_index_builds_total counter",
		"# TYPE alem_blocking_index_adds_total counter",
		"# TYPE alem_blocking_index_postings_total counter",
		"# TYPE alem_blocking_candidates_probed_total counter",
		"# TYPE alem_blocking_size_filter_skipped_total counter",
		"# TYPE alem_blocking_count_filter_skipped_total counter",
		"# TYPE alem_blocking_pairs_verified_total counter",
		"# TYPE alem_blocking_pairs_kept_total counter",
		"# TYPE alem_oracle_cost_batches_total counter",
		"# TYPE alem_oracle_cost_labels_total counter",
		"# TYPE alem_oracle_cost_abstains_total counter",
		"# TYPE alem_oracle_cost_failures_total counter",
		"# TYPE alem_oracle_cost_microdollars_total counter",
	} {
		if !strings.Contains(body, typeLine+"\n") {
			t.Errorf("metrics output missing %q", typeLine)
		}
	}
}

// TestPprofOptIn: /debug/pprof is absent by default and served (bypassing
// the instrumentation middleware) when Config.EnablePprof is set.
func TestPprofOptIn(t *testing.T) {
	_, off := newTestServer(t, Config{})
	resp, err := http.Get(off.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof without opt-in: status %d, want 404", resp.StatusCode)
	}

	s, on := newTestServer(t, Config{EnablePprof: true})
	resp, err = http.Get(on.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof with opt-in: status %d, want 200", resp.StatusCode)
	}
	// The debug route must not leak into request metrics.
	mresp, mbody := metricsText(t, on.URL+"/metrics")
	mresp.Body.Close()
	if strings.Contains(mbody, "/debug/pprof") {
		t.Error("pprof requests were counted by the request metrics")
	}
	_ = s
}
