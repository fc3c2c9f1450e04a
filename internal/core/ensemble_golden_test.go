package core

// Active-ensemble pins. testdata/golden_ensemble.json was recorded from
// the §5.2 ensemble loop as it ran before the Session engine took it
// over. For sixteen scenarios it holds what that loop exposed: a digest
// and count of the oracle's query sequence; for every Select call, k and
// digests of the labeled, label and unlabeled views; per iteration the
// label count and unlabeled-pool size entering it, the evaluated point's
// label count and exact F1, precision and recall, the selected batch and
// the ensemble size after an acceptance; and at the end the stop reason,
// the label count, the accepted count and a Noisy oracle's draws. The
// file is never regenerated: a diff means the ensemble no longer runs
// the loop it replaced. Run with `make equiv`.

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"github.com/alem/alem/internal/dataset"
	"github.com/alem/alem/internal/neural"
	"github.com/alem/alem/internal/oracle"
)

// ensembleIter is one iteration of a pinned ensemble run.
type ensembleIter struct {
	Iteration     int     `json:"iteration"`
	LabelsUsed    int     `json:"labels_used"`
	PoolRemaining int     `json:"pool_remaining"`
	Labels        int     `json:"labels"`
	F1            float64 `json:"f1"`
	Precision     float64 `json:"precision"`
	Recall        float64 `json:"recall"`
	Batch         []int   `json:"batch,omitempty"`
	Accepted      int     `json:"accepted,omitempty"`
}

// ensembleSelect is one Select call's arguments.
type ensembleSelect struct {
	K         int    `json:"k"`
	Labeled   string `json:"labeled_sha256"`
	Labels    string `json:"labels_sha256"`
	Unlabeled string `json:"unlabeled_sha256"`
}

// ensembleRecord is what the golden holds for one scenario.
type ensembleRecord struct {
	Iterations  []ensembleIter   `json:"iterations"`
	Selects     []ensembleSelect `json:"selects"`
	Queries     int              `json:"queries"`
	QueryDigest string           `json:"queries_sha256"`
	Reason      string           `json:"reason"`
	LabelsUsed  int              `json:"labels_used"`
	Accepted    int              `json:"accepted"`
	NoisyDraws  uint64           `json:"noisy_draws,omitempty"`
}

// jsonDigest is the sha256 of v's JSON encoding.
func jsonDigest(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return digest(b)
}

// queryRecorder is a per-pair oracle that logs every pair it is asked.
type queryRecorder struct {
	inner oracle.Oracle
	pairs []dataset.PairKey
}

func (q *queryRecorder) Label(p dataset.PairKey) bool {
	q.pairs = append(q.pairs, p)
	return q.inner.Label(p)
}

func (q *queryRecorder) Queries() int { return q.inner.Queries() }

// selectRecorder is a Selector that logs each call's views and keeps
// the batch it returned last.
type selectRecorder struct {
	t     *testing.T
	inner Selector
	calls []ensembleSelect
	last  []int
}

func (r *selectRecorder) Name() string { return r.inner.Name() }

func (r *selectRecorder) Select(sctx *SelectContext, k int) []int {
	r.calls = append(r.calls, ensembleSelect{
		K:         k,
		Labeled:   jsonDigest(r.t, sctx.LabeledIdx),
		Labels:    jsonDigest(r.t, sctx.Labels),
		Unlabeled: jsonDigest(r.t, sctx.Unlabeled),
	})
	r.last = r.inner.Select(sctx, k)
	return r.last
}

// ensembleScenario is one pinned run: a pool, its labeler and a config
// whose Selector the recorder wraps.
type ensembleScenario struct {
	pool  func(t *testing.T) *Pool
	noise float64 // > 0 labels through a Noisy oracle seeded 13
	cfg   EnsembleConfig
}

func nnFactory(seed int64) Learner {
	n := neural.NewNet(8, seed)
	n.Epochs = 10
	return n
}

func synthetic(n int, seed int64) func(*testing.T) *Pool {
	return func(*testing.T) *Pool { return syntheticPool(n, seed) }
}

func ambiguous(n int, seed int64) func(*testing.T) *Pool {
	return func(*testing.T) *Pool { return ambiguousPool(n, seed) }
}

func generatedBeer(t *testing.T) *Pool {
	d, err := dataset.Load("beer", 1.0, 41)
	if err != nil {
		t.Fatal(err)
	}
	return NewPool(d)
}

func svmMargin(cfg Config) EnsembleConfig {
	return EnsembleConfig{Config: cfg, Factory: svmFactory, Selector: Margin{}}
}

// ensembleScenarios are the golden's scenarios, by name. Together they
// reach every stop an ensemble run gives: the label budget, an exhausted
// pool, the target F1 and an empty selection.
var ensembleScenarios = map[string]ensembleScenario{
	"synthetic/workers=0": {pool: synthetic(500, 51), cfg: svmMargin(Config{Seed: 51, MaxLabels: 150})},
	"synthetic/workers=1": {pool: synthetic(500, 51), cfg: svmMargin(Config{Seed: 51, MaxLabels: 150, Workers: 1})},
	"synthetic/heldout":   {pool: synthetic(500, 52), cfg: svmMargin(Config{Seed: 52, MaxLabels: 150, Mode: HeldOut})},
	"synthetic/nn": {pool: synthetic(400, 53), cfg: EnsembleConfig{
		Config: Config{Seed: 53, MaxLabels: 150}, Factory: nnFactory, Selector: Margin{}}},
	"synthetic/noisy-0.2": {pool: synthetic(500, 54), noise: 0.2, cfg: svmMargin(Config{Seed: 54, MaxLabels: 150})},
	"synthetic/random": {pool: synthetic(500, 55), cfg: EnsembleConfig{
		Config: Config{Seed: 55, MaxLabels: 150}, Factory: svmFactory, Selector: Random{}}},
	"synthetic/tau=0.5,minpos=1": {pool: synthetic(500, 56), cfg: EnsembleConfig{
		Config: Config{Seed: 56, MaxLabels: 150}, Factory: svmFactory, Selector: Margin{},
		Tau: 0.5, MinPositive: 1}},
	"synthetic/tau=2": {pool: synthetic(500, 57), cfg: EnsembleConfig{
		Config: Config{Seed: 57, MaxLabels: 150}, Factory: svmFactory, Selector: Margin{}, Tau: 2}},
	"synthetic/target-f1": {pool: synthetic(500, 58), cfg: svmMargin(Config{Seed: 58, MaxLabels: 150, TargetF1: 0.9})},
	"synthetic/no-max":    {pool: synthetic(300, 59), cfg: svmMargin(Config{Seed: 59})},
	"ambiguous/tau=0.85": {pool: ambiguous(500, 61), cfg: EnsembleConfig{
		Config: Config{Seed: 61, MaxLabels: 300}, Factory: svmFactory, Selector: Margin{}, Tau: 0.85}},
	"ambiguous/tau=0.6": {pool: ambiguous(500, 62), cfg: EnsembleConfig{
		Config: Config{Seed: 62, MaxLabels: 300}, Factory: svmFactory, Selector: Margin{}, Tau: 0.6}},
	"ambiguous/random,tau=0.6": {pool: ambiguous(500, 63), cfg: EnsembleConfig{
		Config: Config{Seed: 63, MaxLabels: 300}, Factory: svmFactory, Selector: Random{}, Tau: 0.6}},
	"ambiguous/nn,noisy-0.2": {pool: ambiguous(400, 64), noise: 0.2, cfg: EnsembleConfig{
		Config: Config{Seed: 64, MaxLabels: 250}, Factory: nnFactory, Selector: Margin{}, Tau: 0.6}},
	"beer/progressive": {pool: generatedBeer, cfg: svmMargin(Config{Seed: 65})},
	"beer/heldout":     {pool: generatedBeer, cfg: svmMargin(Config{Seed: 66, Mode: HeldOut})},
}

// runEnsembleScenario runs one scenario through RunEnsembleContext,
// recording what the golden pins.
func runEnsembleScenario(t *testing.T, sc ensembleScenario) ensembleRecord {
	t.Helper()
	pool := sc.pool(t)
	var base oracle.Oracle = poolOracle(pool)
	var noisy *oracle.Noisy
	if sc.noise > 0 {
		noisy = noisyPoolOracle(pool, sc.noise, 13)
		base = noisy
	}
	o := &queryRecorder{inner: base}
	sel := &selectRecorder{t: t, inner: sc.cfg.Selector}
	cfg := sc.cfg
	cfg.Selector = sel

	var rec ensembleRecord
	var end RunEnd
	cur := func() *ensembleIter { return &rec.Iterations[len(rec.Iterations)-1] }
	res, err := RunEnsembleContext(context.Background(), pool, o, cfg, ObserverFunc(func(e Event) {
		switch e := e.(type) {
		case PhaseDone:
			// An iteration opens at its train phase; an ensemble's train
			// Labels is the candidate's training set, so the labels
			// entering the iteration come from evaluate. A batch that goes
			// on to labeling is the selector's last.
			switch e.Phase {
			case "train":
				rec.Iterations = append(rec.Iterations, ensembleIter{Iteration: e.Iteration, PoolRemaining: e.PoolRemaining})
			case "evaluate":
				it := cur()
				it.LabelsUsed = e.Labels
				it.Labels, it.F1, it.Precision, it.Recall = e.Point.Labels, e.Point.F1, e.Point.Precision, e.Point.Recall
			case "select":
				if e.Batch > 0 {
					cur().Batch = append([]int(nil), sel.last...)
				}
			}
		case CandidateAccepted:
			cur().Accepted = e.Accepted
		case RunEnd:
			end = e
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	rec.Selects = sel.calls
	rec.Queries = len(o.pairs)
	rec.QueryDigest = jsonDigest(t, o.pairs)
	rec.Reason = end.Reason.String()
	rec.LabelsUsed = end.LabelsUsed
	rec.Accepted = res.Accepted
	if noisy != nil {
		rec.NoisyDraws = noisy.Draws()
	}
	if res.LabelsUsed != end.LabelsUsed || res.Reason != end.Reason || len(res.Curve) != len(rec.Iterations) {
		t.Errorf("result (%d labels, %v, %d points) disagrees with its events (%d labels, %v, %d iterations)",
			res.LabelsUsed, res.Reason, len(res.Curve), end.LabelsUsed, end.Reason, len(rec.Iterations))
	}
	return rec
}

// TestEnsembleLoopEquivalence runs every scenario against its golden
// record.
func TestEnsembleLoopEquivalence(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "golden_ensemble.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]ensembleRecord
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(ensembleScenarios))
	for name := range ensembleScenarios {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(golden) != len(names) {
		t.Errorf("golden holds %d scenarios, the test runs %d", len(golden), len(names))
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			want, ok := golden[name]
			if !ok {
				t.Fatalf("golden has no scenario %q", name)
			}
			got := runEnsembleScenario(t, ensembleScenarios[name])
			if len(got.Iterations) != len(want.Iterations) {
				t.Errorf("%d iterations, golden has %d", len(got.Iterations), len(want.Iterations))
			}
			for i := 0; i < min(len(got.Iterations), len(want.Iterations)); i++ {
				if !reflect.DeepEqual(got.Iterations[i], want.Iterations[i]) {
					t.Fatalf("iteration %d diverges from the golden:\ngot  %+v\nwant %+v", i, got.Iterations[i], want.Iterations[i])
				}
			}
			if !reflect.DeepEqual(got.Selects, want.Selects) {
				t.Errorf("Select calls diverge from the golden:\ngot  %+v\nwant %+v", got.Selects, want.Selects)
			}
			got.Iterations, want.Iterations, got.Selects, want.Selects = nil, nil, nil, nil
			if !reflect.DeepEqual(got, want) {
				t.Errorf("run diverges from the golden:\ngot  %+v\nwant %+v", got, want)
			}
		})
	}
}
