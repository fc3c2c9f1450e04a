package serve

// Registry tests: versioned publish/activate/remove semantics, admin
// HTTP routes, per-model routing, and the two hot-swap chaos
// guarantees — a swap under load loses zero requests, and a swap to a
// corrupt artifact never evicts the serving version.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/alem/alem/internal/core"
	"github.com/alem/alem/internal/dataset"
	"github.com/alem/alem/internal/feature"
	"github.com/alem/alem/internal/model"
)

// beerArtifactBytes re-serializes the shared beer artifact so HTTP
// publish tests have a valid wire body.
func beerArtifactBytes(t *testing.T) []byte {
	t.Helper()
	art, _ := beerArtifact(t)
	var buf bytes.Buffer
	if err := model.Save(&buf, art.Learner, art.Meta); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// doJSON issues a request with optional headers and returns status plus
// decoded body.
func doJSON(t *testing.T, method, url string, body []byte, headers map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func TestRegistryPublishActivateRemove(t *testing.T) {
	art, _ := beerArtifact(t)
	reg := newRegistry(Config{Linger: -1}, nil)
	t.Cleanup(reg.Close)

	if _, _, err := reg.acquire(""); !errors.Is(err, ErrNoActiveModel) {
		t.Fatalf("acquire on empty registry = %v, want ErrNoActiveModel", err)
	}
	if err := reg.Publish("v1", art); err != nil {
		t.Fatal(err)
	}
	if err := reg.Publish("v2", art); err != nil {
		t.Fatal(err)
	}
	if reg.Current() != "" || reg.Len() != 2 {
		t.Fatalf("before activation: current %q len %d, want \"\" and 2", reg.Current(), reg.Len())
	}

	prev, err := reg.Activate("v1")
	if err != nil || prev != "" {
		t.Fatalf("first Activate = (%q, %v), want (\"\", nil)", prev, err)
	}
	e, release, err := reg.acquire(DefaultAlias)
	if err != nil || e.id != "v1" {
		t.Fatalf("default alias resolved (%v, %v), want v1", e, err)
	}
	release()
	e, release, err = reg.acquire("v2")
	if err != nil || e.id != "v2" {
		t.Fatalf("explicit id resolved (%v, %v), want v2", e, err)
	}
	release()
	if _, _, err := reg.acquire("nope"); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("acquire unknown = %v, want ErrUnknownModel", err)
	}

	if prev, err = reg.Activate("v2"); err != nil || prev != "v1" {
		t.Fatalf("second Activate = (%q, %v), want (v1, nil)", prev, err)
	}
	if err := reg.Remove("v2"); err == nil {
		t.Fatal("Remove accepted the active version")
	}
	if _, err := reg.Activate("nope"); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("Activate unknown = %v, want ErrUnknownModel", err)
	}
	if err := reg.Remove("v1"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Remove("v1"); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("second Remove = %v, want ErrUnknownModel", err)
	}

	infos := reg.List()
	if len(infos) != 1 || infos[0].ID != "v2" || !infos[0].Active {
		t.Fatalf("List after removal = %+v, want one active v2", infos)
	}
}

func TestRegistryRejectsBadPublishes(t *testing.T) {
	art, _ := beerArtifact(t)
	reg := newRegistry(Config{Linger: -1}, nil)
	t.Cleanup(reg.Close)

	bad := map[string]func() error{
		"empty id":      func() error { return reg.Publish("", art) },
		"default alias": func() error { return reg.Publish(DefaultAlias, art) },
		"path id":       func() error { return reg.Publish("a/b", art) },
		"whitespace id": func() error { return reg.Publish("a b", art) },
		"nil artifact":  func() error { return reg.Publish("v9", nil) },
	}
	for name, publish := range bad {
		if err := publish(); !errors.Is(err, ErrSwapRejected) {
			t.Errorf("%s: err = %v, want ErrSwapRejected", name, err)
		}
	}
	if err := reg.Publish("v1", art); err != nil {
		t.Fatal(err)
	}
	if err := reg.Publish("v1", art); !errors.Is(err, ErrSwapRejected) {
		t.Fatalf("duplicate publish = %v, want ErrSwapRejected", err)
	}
	if reg.LastSwapError() == nil {
		t.Fatal("rejected publishes left no swap error")
	}
	if got := reg.swapFailures.Load(); got != int64(len(bad))+1 {
		t.Errorf("swap failures = %d, want %d", got, len(bad)+1)
	}

	// A garbage artifact through the wire path carries both sentinels:
	// the registry's rejection and the loader's diagnosis.
	if _, err := reg.PublishReader("v2", strings.NewReader("{torn")); !errors.Is(err, ErrSwapRejected) {
		t.Fatalf("garbage PublishReader = %v, want ErrSwapRejected", err)
	}

	// Success clears the degraded flag only on activation.
	if reg.LastSwapError() == nil {
		t.Fatal("swap error cleared before any activation")
	}
	if _, err := reg.Activate("v1"); err != nil {
		t.Fatal(err)
	}
	if err := reg.LastSwapError(); err != nil {
		t.Fatalf("swap error = %v after successful activation, want nil", err)
	}
}

// TestRegistryRemoveWaitsForInFlight pins the drain half of zero-loss
// swaps: a removed version's pool stays alive until the last request
// pinning it releases.
func TestRegistryRemoveWaitsForInFlight(t *testing.T) {
	reg := newRegistry(Config{Workers: 1, Linger: -1}, nil)
	t.Cleanup(reg.Close)
	if err := reg.Publish("old", artifactFor(slowLearner{dim: 3})); err != nil {
		t.Fatal(err)
	}
	if err := reg.Publish("new", artifactFor(slowLearner{dim: 3})); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Activate("new"); err != nil {
		t.Fatal(err)
	}

	e, release, err := reg.acquire("old")
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Remove("old"); err != nil {
		t.Fatal(err)
	}
	// The holder's pool must still accept and finish work.
	j := &scoreJob{ctx: context.Background(), vecs: []feature.Vector{{1, 2, 3}}, out: make(chan scoreResult, 1)}
	if err := e.pool.submit(j); err != nil {
		t.Fatalf("pool refused work while pinned by an in-flight request: %v", err)
	}
	if res := <-j.out; res.err != nil {
		t.Fatalf("pinned pool failed the job: %v", res.err)
	}

	release()
	// With the pin gone the background drain closes the pool.
	waitUntil(t, 5*time.Second, func() bool {
		probe := &scoreJob{ctx: context.Background(), vecs: []feature.Vector{{1, 2, 3}}, out: make(chan scoreResult, 1)}
		return errors.Is(e.pool.submit(probe), ErrDraining)
	}, "removed version's pool drain")
}

// TestRegistryCountersMonotoneAcrossRemove scrapes /metrics before a
// version is removed, while a holder still pins it (as an in-flight
// request does), and after its drain: no _total series may fall. The
// removed version served /v1/match and /v1/score traffic, so its pool,
// breaker, extractor-reuse and candidate-index counts must stay in the
// sums throughout.
func TestRegistryCountersMonotoneAcrossRemove(t *testing.T) {
	art, X := beerArtifact(t)
	s := NewMulti(Config{Linger: -1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	reg := s.Models()
	if err := reg.Publish("v1", art); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Activate("v1"); err != nil {
		t.Fatal(err)
	}
	fresh, err := dataset.Load("beer", 1.0, 22)
	if err != nil {
		t.Fatal(err)
	}
	req := matchRequest{Left: tableToJSON(fresh.Left), Right: tableToJSON(fresh.Right)}
	for i := 0; i < 3; i++ {
		if resp, body := postJSON(t, ts.URL+"/v1/match", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("match %d: status %d: %s", i, resp.StatusCode, body)
		}
		if resp, body := postJSON(t, ts.URL+"/v1/score", scoreRequest{Vectors: [][]float64{X[i]}}); resp.StatusCode != http.StatusOK {
			t.Fatalf("score %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	if err := reg.Publish("v2", art); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Activate("v2"); err != nil {
		t.Fatal(err)
	}

	before := totalSeries(t, ts.URL)
	for _, name := range []string{
		"alem_matcher_extractor_reuse_hits_total", "alem_matcher_extractor_reuse_misses_total",
		"alem_score_requests_total", "alem_score_batches_total", "alem_score_vectors_total",
		"alem_blocking_candidates_probed_total",
	} {
		if before[name] == 0 {
			t.Fatalf("%s reads 0 before the remove; the fixture sent no traffic it counts", name)
		}
	}
	_, release, err := reg.acquire("v1")
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Remove("v1"); err != nil {
		t.Fatal(err)
	}
	draining := totalSeries(t, ts.URL)
	release()
	reg.drains.Wait()
	after := totalSeries(t, ts.URL)

	for _, step := range []struct {
		name     string
		from, to map[string]float64
	}{{"while draining", before, draining}, {"after the drain", draining, after}} {
		for series, v := range step.from {
			if got, ok := step.to[series]; !ok || got < v {
				t.Errorf("%s: %s went from %v to %v", step.name, series, v, got)
			}
		}
	}
}

// totalSeries scrapes /metrics and returns every _total series' value,
// keyed by its name and labels.
func totalSeries(t *testing.T, url string) map[string]float64 {
	t.Helper()
	_, text := metricsText(t, url)
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		i := strings.LastIndexByte(line, ' ')
		if strings.HasPrefix(line, "#") || i < 0 {
			continue
		}
		key := line[:i]
		name, _, _ := strings.Cut(key, "{")
		if !strings.HasSuffix(name, "_total") {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		out[key] = v
	}
	return out
}

func TestRegistryLoadDir(t *testing.T) {
	dir := t.TempDir()
	good := beerArtifactBytes(t)
	for name, content := range map[string][]byte{
		"alpha.json": good,
		"bad.json":   []byte("{torn artifact"),
		"gamma.json": good,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), content, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	reg := newRegistry(Config{Linger: -1}, nil)
	t.Cleanup(reg.Close)
	loaded, err := reg.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 2 || loaded[0] != "alpha" || loaded[1] != "gamma" {
		t.Fatalf("LoadDir loaded %v, want [alpha gamma]", loaded)
	}
	// Fail-soft: the corrupt file is recorded, not fatal.
	if reg.LastSwapError() == nil {
		t.Error("corrupt artifact in models dir left no swap error")
	}
	if reg.Len() != 2 {
		t.Errorf("registry holds %d versions, want 2", reg.Len())
	}
}

// TestModelRouting drives per-request version selection: the
// X-Alem-Model header (or ?model=) routes to a specific version, the
// default alias follows activation, and unknown ids answer 404.
func TestModelRouting(t *testing.T) {
	art, X := beerArtifact(t)
	s := New(art, Config{Linger: -1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	// A second version with a different dimensionality makes routing
	// observable: vectors valid for one are rejected by the other.
	if err := s.Models().Publish("tiny", artifactFor(slowLearner{dim: 3})); err != nil {
		t.Fatal(err)
	}

	beerVec, _ := json.Marshal(scoreRequest{Vectors: [][]float64{X[0]}})
	tinyVec, _ := json.Marshal(scoreRequest{Vectors: [][]float64{{1, 2, 3}}})

	resp, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/score", beerVec, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("default alias score: %d: %s", resp.StatusCode, raw)
	}
	resp, raw = doJSON(t, http.MethodPost, ts.URL+"/v1/score", tinyVec,
		map[string]string{"X-Alem-Model": "tiny"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("header-routed score: %d: %s", resp.StatusCode, raw)
	}
	resp, raw = doJSON(t, http.MethodPost, ts.URL+"/v1/score?model=tiny", tinyVec, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query-routed score: %d: %s", resp.StatusCode, raw)
	}
	// Routing is real: the tiny version rejects beer-dimensional vectors.
	resp, _ = doJSON(t, http.MethodPost, ts.URL+"/v1/score", beerVec,
		map[string]string{"X-Alem-Model": "tiny"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrong-dim routed score: %d, want 400", resp.StatusCode)
	}
	resp, _ = doJSON(t, http.MethodPost, ts.URL+"/v1/score", tinyVec,
		map[string]string{"X-Alem-Model": "nope"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model: %d, want 404", resp.StatusCode)
	}
}

// TestNoActiveModelServing: a NewMulti server with nothing activated is
// alive but degraded — model routes 503, /healthz degraded, /metrics up.
func TestNoActiveModelServing(t *testing.T) {
	s := NewMulti(Config{Linger: -1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	resp, raw := scoreOnce(t, ts.URL)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("score with no model: %d, want 503: %s", resp.StatusCode, raw)
	}
	if body := healthzBody(t, ts.URL); body["status"] != "degraded" {
		t.Errorf("healthz = %v, want degraded with no active model", body)
	}
	mresp, _ := metricsText(t, ts.URL)
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Errorf("/metrics = %d with no model, want 200", mresp.StatusCode)
	}
}

// TestAdminRoutesGated: the mutating registry routes exist only with
// EnableAdmin; the read-only listing is always mounted.
func TestAdminRoutesGated(t *testing.T) {
	art, _ := beerArtifact(t)
	s := New(art, Config{Linger: -1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})

	resp, raw := doJSON(t, http.MethodGet, ts.URL+"/v1/models", nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/models: %d: %s", resp.StatusCode, raw)
	}
	var listing modelsResponse
	if err := json.Unmarshal(raw, &listing); err != nil {
		t.Fatal(err)
	}
	if listing.Active != BootVersion || len(listing.Models) != 1 {
		t.Fatalf("listing = %+v, want active %s with one version", listing, BootVersion)
	}

	for _, probe := range []struct {
		method, path string
	}{
		{http.MethodPost, "/v1/models?id=v2"},
		{http.MethodPost, "/v1/models/v1/activate"},
		{http.MethodDelete, "/v1/models/v1"},
	} {
		resp, _ := doJSON(t, probe.method, ts.URL+probe.path, beerArtifactBytes(t), nil)
		if resp.StatusCode != http.StatusMethodNotAllowed && resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s without admin: %d, want 404/405", probe.method, probe.path, resp.StatusCode)
		}
	}
}

// TestAdminPublishActivateRemoveCycle walks the full admin lifecycle
// over HTTP, including ModelsDir persistence.
func TestAdminPublishActivateRemoveCycle(t *testing.T) {
	art, X := beerArtifact(t)
	dir := t.TempDir()
	s := New(art, Config{EnableAdmin: true, ModelsDir: dir, Linger: -1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})

	// Publish v2 without activating: it is listed but not serving.
	resp, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/models?id=v2", beerArtifactBytes(t), nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("publish v2: %d: %s", resp.StatusCode, raw)
	}
	var pub publishResponse
	if err := json.Unmarshal(raw, &pub); err != nil {
		t.Fatal(err)
	}
	if pub.ID != "v2" || pub.Activated || pub.PersistError != "" {
		t.Fatalf("publish response = %+v", pub)
	}
	if _, err := os.Stat(filepath.Join(dir, "v2.json")); err != nil {
		t.Fatalf("published artifact not persisted: %v", err)
	}
	if s.Models().Current() != BootVersion {
		t.Fatalf("publish without activate moved the alias to %q", s.Models().Current())
	}

	// Activate v2, then the boot version can be removed.
	resp, raw = doJSON(t, http.MethodPost, ts.URL+"/v1/models/v2/activate", nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("activate v2: %d: %s", resp.StatusCode, raw)
	}
	if s.Models().Current() != "v2" {
		t.Fatalf("alias = %q after activate, want v2", s.Models().Current())
	}
	resp, raw = doJSON(t, http.MethodDelete, ts.URL+"/v1/models/v2", nil, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("delete active version: %d, want 409: %s", resp.StatusCode, raw)
	}
	resp, raw = doJSON(t, http.MethodDelete, ts.URL+"/v1/models/"+BootVersion, nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete retired version: %d: %s", resp.StatusCode, raw)
	}
	resp, _ = doJSON(t, http.MethodDelete, ts.URL+"/v1/models/"+BootVersion, nil, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("delete unknown version: %d, want 404", resp.StatusCode)
	}

	// The swapped-in version serves.
	vec, _ := json.Marshal(scoreRequest{Vectors: [][]float64{X[0]}})
	resp, raw = doJSON(t, http.MethodPost, ts.URL+"/v1/score", vec, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("score after full cycle: %d: %s", resp.StatusCode, raw)
	}

	// A fresh registry reloads the persisted fleet.
	reg := newRegistry(Config{Linger: -1}, nil)
	t.Cleanup(reg.Close)
	loaded, err := reg.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 1 || loaded[0] != "v2" {
		t.Fatalf("restart LoadDir = %v, want [v2]", loaded)
	}
}

// TestChaosHotSwapUnderLoadZeroFailures is the tentpole acceptance
// test: sustained traffic rides through a publish+activate hot swap
// with zero failed requests — every response is 200 before, during and
// after the flip, and the alias lands on the new version.
func TestChaosHotSwapUnderLoadZeroFailures(t *testing.T) {
	art, X := beerArtifact(t)
	s := New(art, Config{EnableAdmin: true, Linger: -1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})

	var served, failed atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	vec, _ := json.Marshal(scoreRequest{Vectors: [][]float64{X[0]}})
	const clients = 4
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/v1/score", "application/json", bytes.NewReader(vec))
				if err != nil {
					failed.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					served.Add(1)
				} else {
					failed.Add(1)
					t.Errorf("request failed with %d during swap window", resp.StatusCode)
				}
			}
		}()
	}

	// Traffic is provably flowing, then the swap lands mid-stream.
	waitUntil(t, 10*time.Second, func() bool { return served.Load() >= 5 }, "pre-swap traffic")
	resp, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/models?id=v2&activate=true", beerArtifactBytes(t), nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("mid-traffic publish: %d: %s", resp.StatusCode, raw)
	}
	if s.Models().Current() != "v2" {
		t.Fatalf("alias = %q after swap, want v2", s.Models().Current())
	}
	// The old version retires under the same load; its in-flight work
	// drains on its own pool.
	atSwap := served.Load()
	resp, raw = doJSON(t, http.MethodDelete, ts.URL+"/v1/models/"+BootVersion, nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retire %s mid-traffic: %d: %s", BootVersion, resp.StatusCode, raw)
	}
	waitUntil(t, 10*time.Second, func() bool { return served.Load() >= atSwap+5 }, "post-swap traffic")
	close(stop)
	wg.Wait()

	if failed.Load() != 0 {
		t.Fatalf("%d requests failed across the swap; hot swap must lose zero", failed.Load())
	}
	if body := healthzBody(t, ts.URL); body["status"] != "ok" || body["active"] != "v2" {
		t.Errorf("healthz after swap = %v, want ok/v2", body)
	}
	mresp, mraw := metricsText(t, ts.URL)
	mresp.Body.Close()
	if !strings.Contains(mraw, "alem_model_swaps_total 2") { // boot activation + hot swap
		t.Errorf("swap counter:\n%s", grepLines(mraw, "swap"))
	}
}

// TestChaosSwapToCorruptArtifactKeepsServing is the degraded-mode
// acceptance test: a swap offered a truncated artifact is rejected with
// a typed error, the prior version never stops serving, /healthz turns
// degraded (but stays 200 — degraded is not dead), and the next good
// swap clears the condition.
func TestChaosSwapToCorruptArtifactKeepsServing(t *testing.T) {
	art, X := beerArtifact(t)
	s := New(art, Config{EnableAdmin: true, Linger: -1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	good := beerArtifactBytes(t)
	vec, _ := json.Marshal(scoreRequest{Vectors: [][]float64{X[0]}})

	resp, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/models?id=v2&activate=true", good[:len(good)/2], nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt publish: %d, want 400: %s", resp.StatusCode, raw)
	}
	var eresp errorResponse
	if err := json.Unmarshal(raw, &eresp); err != nil || !strings.Contains(eresp.Error, "invalid model artifact") {
		t.Errorf("corrupt publish body = %s, want the loader's typed diagnosis", raw)
	}
	if err := s.Models().LastSwapError(); !errors.Is(err, ErrSwapRejected) || !errors.Is(err, model.ErrInvalidArtifact) {
		t.Errorf("recorded swap error = %v, want ErrSwapRejected wrapping ErrInvalidArtifact", err)
	}

	// The failed swap evicted nothing: v1 serves, healthz is degraded
	// but the endpoint itself stays 200.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d while degraded, want 200 (degraded is not dead)", hresp.StatusCode)
	}
	body := healthzBody(t, ts.URL)
	if body["status"] != "degraded" || body["active"] != BootVersion {
		t.Fatalf("healthz after corrupt swap = %v, want degraded with %s active", body, BootVersion)
	}
	if _, ok := body["last_swap_error"]; !ok {
		t.Error("healthz omits last_swap_error while degraded")
	}
	resp, raw = doJSON(t, http.MethodPost, ts.URL+"/v1/score", vec, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("score after corrupt swap: %d, want 200 (prior version must keep serving): %s",
			resp.StatusCode, raw)
	}
	mresp, mraw := metricsText(t, ts.URL)
	mresp.Body.Close()
	if !strings.Contains(mraw, "alem_model_swap_failures_total 1") {
		t.Errorf("swap failure counter:\n%s", grepLines(mraw, "swap"))
	}

	// A good swap clears the degraded condition.
	resp, raw = doJSON(t, http.MethodPost, ts.URL+"/v1/models?id=v2&activate=true", good, nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("recovery publish: %d: %s", resp.StatusCode, raw)
	}
	if body := healthzBody(t, ts.URL); body["status"] != "ok" || body["active"] != "v2" {
		t.Errorf("healthz after recovery = %v, want ok/v2", body)
	}
}

// TestRegistryEventsEmitted pins the registry's lifecycle vocabulary
// and its EventLine rendering.
func TestRegistryEventsEmitted(t *testing.T) {
	art, _ := beerArtifact(t)
	var mu sync.Mutex
	var lines []string
	reg := newRegistry(Config{Linger: -1}, func(e core.Event) {
		if le, ok := e.(interface{ EventLine() string }); ok {
			mu.Lock()
			lines = append(lines, le.EventLine())
			mu.Unlock()
		}
	})
	t.Cleanup(reg.Close)

	if err := reg.Publish("v1", art); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Activate("v1"); err != nil {
		t.Fatal(err)
	}
	reg.PublishReader("v2", strings.NewReader("garbage"))

	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 3 {
		t.Fatalf("events = %v, want publish/activate/swap-fail", lines)
	}
	for i, want := range []string{"model publish", "model activate", "model swap-fail"} {
		if !strings.HasPrefix(lines[i], want) {
			t.Errorf("event %d = %q, want prefix %q", i, lines[i], want)
		}
	}
	if !strings.Contains(lines[1], "prev=(none)") {
		t.Errorf("first activation %q should render prev=(none)", lines[1])
	}
}
