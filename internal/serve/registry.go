package serve

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/alem/alem/internal/blocking"
	"github.com/alem/alem/internal/core"
	"github.com/alem/alem/internal/match"
	"github.com/alem/alem/internal/model"
	"github.com/alem/alem/internal/resilience"
)

// The registry is the zero-downtime half of the serving layer: before
// it, almserve loaded exactly one artifact at boot and had to be killed
// to change it — every model update was an outage. Now models are
// versioned entries in a Registry, each with its own batching pool and
// circuit breaker, and "the model" /v1/match and /v1/score serve is an
// atomic pointer to the active entry. A swap is Publish (validate the
// new artifact, spin up its pool) then Activate (one pointer flip): new
// requests land on the new version the instant the flip commits, while
// requests already holding the old entry drain on its own pool —
// nothing is torn down under them, so a swap under load loses zero
// requests. A swap that fails validation changes nothing except the
// registry's degraded flag: the prior version keeps serving, mirroring
// the candidate index's "a cancelled rebuild keeps the old index" rule.

// Registry errors.
var (
	// ErrSwapRejected wraps every failed publish: the offered artifact
	// did not validate (truncated, garbage, drifted pipeline) or the
	// version id was unusable. The serving version is untouched.
	ErrSwapRejected = errors.New("serve: model swap rejected")
	// ErrNoActiveModel is returned when the default alias resolves to
	// nothing: the registry holds no activated version yet.
	ErrNoActiveModel = errors.New("serve: no active model")
	// ErrUnknownModel is returned when a request names a version id the
	// registry does not hold.
	ErrUnknownModel = errors.New("serve: unknown model version")
)

// DefaultAlias is the model id that resolves to the currently active
// version; requests that name no model use it implicitly.
const DefaultAlias = "default"

// modelEntry is one loaded version: the artifact plus the serving
// machinery dedicated to it. Each version gets its own batching pool —
// batches never mix learners, and an old version's in-flight batches
// drain on its own workers while the new version takes fresh traffic —
// and its own breaker, so a sick canary version sheds without
// condemning a healthy one.
type modelEntry struct {
	id       string
	art      *model.Artifact
	matcher  *match.Matcher
	pool     *scorePool
	breaker  *resilience.Breaker
	inflight atomic.Int64
}

// ModelInfo is one registry entry's public state, served by
// GET /v1/models and embedded per model in /healthz.
type ModelInfo struct {
	ID       string `json:"id"`
	Kind     string `json:"kind"`
	Dim      int    `json:"dim"`
	Active   bool   `json:"active"`
	Breaker  string `json:"breaker"`
	InFlight int64  `json:"in_flight"`
}

// Registry is a versioned model store with zero-downtime activation.
// Create one through NewMulti (or New, which seeds it with one version)
// and reach it with (*Server).Models; it is safe for concurrent use and
// every mutation is also reachable over HTTP via the admin routes.
type Registry struct {
	cfg  Config
	emit func(core.Event)

	current atomic.Pointer[modelEntry]

	mu       sync.Mutex
	versions map[string]*modelEntry
	swapErr  error // last rejected swap; nil after a successful one
	closed   bool

	// Monotonic counters behind /metrics. A removed version stays in
	// draining, and so in the scrape-time sums, until its drain folds its
	// final totals into retired under mu, so no sum ever goes backwards.
	draining     map[*modelEntry]struct{}
	retired      entryTotals
	swaps        atomic.Int64
	swapFailures atomic.Int64
	drains       sync.WaitGroup
}

// entryTotals is one version's share of the summed /metrics counters.
type entryTotals struct {
	jobs, batches, vectors, opens, hits, misses int64
	index                                       blocking.IndexStats // its matcher's candidate indexes
}

// totals reads e's counters as they stand.
func (e *modelEntry) totals() entryTotals {
	jobs, batches, vectors := e.pool.totals()
	hits, misses := e.matcher.ExtractorReuse()
	return entryTotals{jobs, batches, vectors, e.breaker.Opens(), int64(hits), int64(misses), e.matcher.IndexTotals()}
}

func (t *entryTotals) add(u entryTotals) {
	t.jobs += u.jobs
	t.batches += u.batches
	t.vectors += u.vectors
	t.opens += u.opens
	t.hits += u.hits
	t.misses += u.misses
	t.index.Accumulate(u.index)
}

// newRegistry builds an empty registry serving with cfg's pool and
// breaker sizing. emit receives the registry's lifecycle events
// (ModelPublished, ModelActivated, ModelSwapFailed); nil disables them.
func newRegistry(cfg Config, emit func(core.Event)) *Registry {
	if emit == nil {
		emit = func(core.Event) {}
	}
	return &Registry{
		cfg:      cfg.withDefaults(),
		emit:     emit,
		versions: make(map[string]*modelEntry),
		draining: make(map[*modelEntry]struct{}),
	}
}

// validID rejects version ids that would break routing or the on-disk
// layout: empty, the reserved default alias, path separators and
// whitespace.
func validID(id string) error {
	if id == "" {
		return fmt.Errorf("empty model id")
	}
	if id == DefaultAlias {
		return fmt.Errorf("model id %q is the reserved default alias", DefaultAlias)
	}
	if strings.ContainsAny(id, "/\\ \t\n") {
		return fmt.Errorf("model id %q contains path separators or whitespace", id)
	}
	return nil
}

// Publish validates and stores art as version id, ready to activate.
// It never touches the active pointer: publishing a bad artifact (or a
// duplicate id) is a rejected swap — the error wraps ErrSwapRejected,
// the failure is recorded for /healthz, and the serving version is
// untouched.
func (reg *Registry) Publish(id string, art *model.Artifact) error {
	if err := reg.publish(id, art); err != nil {
		reg.recordSwapFailure(id, err)
		return err
	}
	reg.emit(ModelPublished{ID: id, Kind: string(art.Kind), Dim: art.Dim})
	return nil
}

func (reg *Registry) publish(id string, art *model.Artifact) error {
	if err := validID(id); err != nil {
		return fmt.Errorf("%w: %v", ErrSwapRejected, err)
	}
	if art == nil || art.Learner == nil {
		return fmt.Errorf("%w: nil artifact", ErrSwapRejected)
	}
	e := &modelEntry{
		id:      id,
		art:     art,
		matcher: art.Matcher(),
		breaker: resilience.NewBreaker(resilience.BreakerConfig{
			FailureThreshold: reg.cfg.BreakerThreshold,
			Cooldown:         reg.cfg.BreakerCooldown,
		}),
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if reg.closed {
		return fmt.Errorf("%w: registry is closed", ErrSwapRejected)
	}
	if _, dup := reg.versions[id]; dup {
		return fmt.Errorf("%w: version %q already published (remove it first)", ErrSwapRejected, id)
	}
	// The pool spins up only once the entry is definitely going in: a
	// rejected publish must leak no worker goroutines.
	e.pool = newScorePool(art.Learner, reg.cfg.Workers, reg.cfg.MaxBatch, reg.cfg.QueueDepth, reg.cfg.Linger)
	reg.versions[id] = e
	return nil
}

// PublishReader decodes, validates and publishes an artifact from r —
// the admin POST /v1/models path. A truncated or garbage body is a
// rejected swap (the model loader's typed ErrInvalidArtifact rides
// inside the returned ErrSwapRejected chain); nothing is applied.
func (reg *Registry) PublishReader(id string, r io.Reader) (*model.Artifact, error) {
	art, err := model.Load(r)
	if err != nil {
		err = fmt.Errorf("%w: %w", ErrSwapRejected, err)
		reg.recordSwapFailure(id, err)
		return nil, err
	}
	if err := reg.Publish(id, art); err != nil {
		return nil, err
	}
	return art, nil
}

// Activate flips the default alias to version id with one atomic
// pointer store: requests that resolved the alias before the flip
// finish on the previous version's own pool, requests after it land on
// the new one, and no request observes a torn state in between. A
// successful activation clears the registry's degraded flag. Activating
// an unknown id changes nothing.
func (reg *Registry) Activate(id string) (prev string, err error) {
	reg.mu.Lock()
	e, ok := reg.versions[id]
	if !ok {
		reg.mu.Unlock()
		return "", fmt.Errorf("%w: %q", ErrUnknownModel, id)
	}
	old := reg.current.Swap(e)
	reg.swapErr = nil
	reg.mu.Unlock()
	reg.swaps.Add(1)
	if old != nil {
		prev = old.id
	}
	if old != e {
		reg.emit(ModelActivated{ID: id, Prev: prev})
	}
	return prev, nil
}

// recordSwapFailure notes a rejected publish for /healthz and /metrics.
func (reg *Registry) recordSwapFailure(id string, err error) {
	reg.mu.Lock()
	reg.swapErr = err
	reg.mu.Unlock()
	reg.swapFailures.Add(1)
	reg.emit(ModelSwapFailed{ID: id, Reason: err.Error()})
}

// Remove retires a non-active version: it disappears from routing
// immediately, then a background drain waits for its in-flight requests
// to finish before closing its pool. Removing the active version is an
// error — activate a replacement first.
func (reg *Registry) Remove(id string) error {
	reg.mu.Lock()
	e, ok := reg.versions[id]
	if !ok {
		reg.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownModel, id)
	}
	if reg.current.Load() == e {
		reg.mu.Unlock()
		return fmt.Errorf("serve: version %q is active; activate a replacement before removing it", id)
	}
	delete(reg.versions, id)
	reg.draining[e] = struct{}{}
	reg.drains.Add(1)
	reg.mu.Unlock()

	go func() {
		defer reg.drains.Done()
		// No new request can acquire the entry (it left the map under the
		// lock); wait out the ones that already hold it.
		for e.inflight.Load() > 0 {
			time.Sleep(time.Millisecond)
		}
		e.pool.close()
		reg.mu.Lock()
		reg.retired.add(e.totals())
		delete(reg.draining, e)
		reg.mu.Unlock()
	}()
	return nil
}

// LoadDir publishes every *.json artifact in dir (version id = file
// stem, lexical order) without activating any. Robustness over
// strictness: a file that fails validation is recorded as a rejected
// swap — /healthz turns degraded — and skipped, so one corrupt artifact
// in the fleet directory cannot hold every healthy model hostage at
// boot. Returns the ids published.
func (reg *Registry) LoadDir(dir string) ([]string, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, fmt.Errorf("serve: scanning models dir %s: %w", dir, err)
	}
	sort.Strings(names)
	var loaded []string
	for _, name := range names {
		id := strings.TrimSuffix(filepath.Base(name), ".json")
		f, err := os.Open(name)
		if err != nil {
			reg.recordSwapFailure(id, fmt.Errorf("%w: %v", ErrSwapRejected, err))
			continue
		}
		_, err = reg.PublishReader(id, f)
		f.Close()
		if err != nil {
			continue // PublishReader already recorded the failure
		}
		loaded = append(loaded, id)
	}
	return loaded, nil
}

// acquire resolves id ("" or DefaultAlias → the active version) and
// pins the entry against removal for the caller's lifetime; release
// must be called exactly once. The refcount is what lets a swap drain
// instead of drop: a request that resolved the old version keeps a
// live pool until it releases.
func (reg *Registry) acquire(id string) (*modelEntry, func(), error) {
	if id == "" || id == DefaultAlias {
		for {
			e := reg.current.Load()
			if e == nil {
				return nil, nil, ErrNoActiveModel
			}
			// Pin under the lock only if the version is still registered: a
			// concurrent Activate+Remove pair could otherwise close the pool
			// between the alias load and the refcount bump. Inflight bumps
			// happen only while the entry is in the map, so Remove's drain
			// (which deletes first) can never miss a holder.
			reg.mu.Lock()
			if reg.versions[e.id] == e {
				e.inflight.Add(1)
				reg.mu.Unlock()
				return e, releaseOnce(e), nil
			}
			reg.mu.Unlock()
			// The alias moved on while we resolved it; try again.
		}
	}
	reg.mu.Lock()
	e, ok := reg.versions[id]
	if !ok {
		reg.mu.Unlock()
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownModel, id)
	}
	e.inflight.Add(1)
	reg.mu.Unlock()
	return e, releaseOnce(e), nil
}

// releaseOnce returns the idempotent unpin for an acquired entry.
func releaseOnce(e *modelEntry) func() {
	var once sync.Once
	return func() { once.Do(func() { e.inflight.Add(-1) }) }
}

// Current reports the active version id ("" when none is activated).
func (reg *Registry) Current() string {
	if e := reg.current.Load(); e != nil {
		return e.id
	}
	return ""
}

// Len reports how many versions the registry holds.
func (reg *Registry) Len() int {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	return len(reg.versions)
}

// LastSwapError reports the most recent rejected swap, nil after a
// successful Activate. While non-nil the server's /healthz is degraded.
func (reg *Registry) LastSwapError() error {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	return reg.swapErr
}

// List reports every version sorted by id.
func (reg *Registry) List() []ModelInfo {
	active := reg.current.Load()
	reg.mu.Lock()
	out := make([]ModelInfo, 0, len(reg.versions))
	for _, e := range reg.versions {
		out = append(out, ModelInfo{
			ID:       e.id,
			Kind:     string(e.art.Kind),
			Dim:      e.art.Dim,
			Active:   e == active,
			Breaker:  e.breaker.State().String(),
			InFlight: e.inflight.Load(),
		})
	}
	reg.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Close drains and closes every version's pool, waiting for Remove
// drains already in flight. The registry rejects publishes afterwards.
func (reg *Registry) Close() {
	reg.mu.Lock()
	if reg.closed {
		reg.mu.Unlock()
		return
	}
	reg.closed = true
	entries := make([]*modelEntry, 0, len(reg.versions))
	for _, e := range reg.versions {
		entries = append(entries, e)
	}
	reg.mu.Unlock()
	for _, e := range entries {
		e.pool.close()
	}
	reg.drains.Wait()
}

// activeBreaker is the breaker a model-route panic feeds when the
// handler died before resolving a version; nil with no active model.
func (reg *Registry) activeBreaker() *resilience.Breaker {
	if e := reg.current.Load(); e != nil {
		return e.breaker
	}
	return nil
}

// counterTotals sums the /metrics counters across live and draining
// versions plus the final totals of drained ones. It reads under the
// lock the drain folds under, so every sum is monotone.
func (reg *Registry) counterTotals() entryTotals {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	t := reg.retired
	for _, e := range reg.versions {
		t.add(e.totals())
	}
	for e := range reg.draining {
		t.add(e.totals())
	}
	return t
}
