// Package match is the deployment end of the framework: it applies a
// trained learner to two fresh tables, running the same
// blocking-and-featurization pipeline the learner was trained behind.
// This is the "reusable EM model" §2 of the paper holds up against
// crowd-sourcing approaches that re-pay labeling cost per EM instance.
//
// A Matcher is safe for concurrent Match calls: the serving layer
// (internal/serve) shares one Matcher across all in-flight requests, so
// the extractor built for a schema is reused rather than rebuilt per
// call.
package match

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/alem/alem/internal/blocking"
	"github.com/alem/alem/internal/core"
	"github.com/alem/alem/internal/dataset"
	"github.com/alem/alem/internal/feature"
	"github.com/alem/alem/internal/rules"
	"github.com/alem/alem/internal/textsim"
)

// Featurization selects which training-time feature pipeline the Matcher
// reproduces at deployment. It must match how the learner was trained; a
// saved model artifact (internal/model) records it so serving needs no
// out-of-band configuration.
type Featurization int

const (
	// FloatFeatures is the standard pipeline: the 21 similarity metrics
	// applied per attribute (§3).
	FloatFeatures Featurization = iota
	// BoolFeatures is the rule-learner pipeline: Boolean atoms
	// sim(attr) ≥ τ encoded as 0/1 coordinates.
	BoolFeatures
	// ExtendedFeatures is the 25-metric pipeline of NewExtendedExtractor:
	// the standard 21 plus the corpus-aware and numeric metrics. It
	// requires Matcher.Corpus — the document-frequency statistics are part
	// of the model, not derivable from the fresh tables.
	ExtendedFeatures
)

// String implements fmt.Stringer with the artifact-format names.
func (f Featurization) String() string {
	switch f {
	case FloatFeatures:
		return "float"
	case BoolFeatures:
		return "bool"
	case ExtendedFeatures:
		return "extended"
	}
	return fmt.Sprintf("featurization(%d)", int(f))
}

// ParseFeaturization is the inverse of String.
func ParseFeaturization(s string) (Featurization, error) {
	switch s {
	case "float":
		return FloatFeatures, nil
	case "bool":
		return BoolFeatures, nil
	case "extended":
		return ExtendedFeatures, nil
	}
	return 0, fmt.Errorf("match: unknown featurization %q", s)
}

// Pair is one predicted match with the record IDs of both sides and the
// learner's confidence that the pair matches.
type Pair struct {
	LeftID  string
	RightID string
	// Confidence is the pair's score (see Decide): a [0, 1]
	// probability-like estimate that the pair is a match. Learners
	// without a graded surface (the DNF rule model) report 1.
	Confidence float64
}

// Matcher applies a trained learner to new table pairs.
type Matcher struct {
	// Learner is the trained model. Its feature space must have been
	// built from the same schema (attribute list and order) as the
	// tables given to Match; Match validates the dimensionality up
	// front.
	Learner core.Learner
	// BlockThreshold is the offline token-Jaccard threshold applied
	// before featurization.
	BlockThreshold float64
	// Features selects the featurization pipeline (float, bool or
	// extended) the learner was trained behind.
	Features Featurization
	// Corpus carries the training-time document-frequency statistics; it
	// is required when Features is ExtendedFeatures and ignored
	// otherwise.
	Corpus *textsim.Corpus

	// Extractors are cached per schema so repeated Match calls against
	// the same table shapes (the serving hot path) do not rebuild the
	// metric pipeline; ExtractorReuse exposes the hit rate.
	mu       sync.Mutex
	cacheKey string
	ext      *feature.Extractor
	boolExt  *feature.BoolExtractor
	hits     atomic.Uint64
	misses   atomic.Uint64
	indexed  blocking.IndexStats // counters of every index Match built; guarded by mu
}

// ExtractorReuse reports how often Match reused its cached extractor
// (hit) versus building one for a new schema (miss) — the pool-reuse
// rate the serving layer exports on /metrics.
func (m *Matcher) ExtractorReuse() (hits, misses uint64) {
	return m.hits.Load(), m.misses.Load()
}

// IndexTotals sums the counters of the candidate indexes Match calls
// have built (see blocking.IndexStats.Accumulate), cancelled calls
// included — the blocking work the serving layer exports on /metrics.
func (m *Matcher) IndexTotals() blocking.IndexStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.indexed
}

// ctxCheckEvery is how many rows Decide scores between context
// cancellation checks.
const ctxCheckEvery = 512

// Match blocks left × right, featurizes the candidates, and returns the
// pairs the learner predicts as matches (with per-pair confidence), plus
// the number of candidates scored. It honours ctx cancellation between
// pipeline stages and periodically within the scoring sweep. A candidate
// whose score is not finite fails the whole call (see FirstNonFinite).
func (m *Matcher) Match(ctx context.Context, left, right *dataset.Table) ([]Pair, int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if m.Learner == nil {
		return nil, 0, fmt.Errorf("match: nil learner")
	}
	if len(left.Schema) != len(right.Schema) {
		return nil, 0, fmt.Errorf("match: schema widths differ: %d vs %d",
			len(left.Schema), len(right.Schema))
	}
	dim, boolExt, ext, err := m.extractorFor(left.Schema)
	if err != nil {
		return nil, 0, err
	}
	// Validate the learner's feature space against the extractor before
	// touching a single record: a schema mismatch used to surface as a
	// silent misprediction or an index panic deep inside Predict.
	if err := ValidateDim(m.Learner, dim); err != nil {
		return nil, 0, err
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}

	d := dataset.NewDataset("match", left, right, nil, m.BlockThreshold)
	// Candidate generation and featurization both run under the caller's
	// context — featurization is the heaviest pre-scoring stage — so a
	// request past its deadline aborts mid-stage instead of finishing the
	// index pass and featurizing every candidate.
	idx := blocking.NewCandidateIndex(d, blocking.IndexOptions{})
	res, err := blocking.Generate(ctx, idx)
	m.mu.Lock()
	m.indexed.Accumulate(idx.Stats())
	m.mu.Unlock()
	if err != nil {
		return nil, 0, err
	}

	var X []feature.Vector
	if m.Features == BoolFeatures {
		X, err = boolExt.VectorsContext(ctx, d, res.Pairs)
	} else {
		X, err = ext.ExtractPairsContext(ctx, d, res.Pairs)
	}
	if err != nil {
		return nil, 0, err
	}

	scores, matches, err := Decide(ctx, m.Learner, X)
	if err != nil {
		return nil, 0, err
	}
	if i := FirstNonFinite(scores); i >= 0 {
		p := res.Pairs[i]
		return nil, 0, fmt.Errorf("match: candidate %d (%s, %s) has no finite score; features outside the model's range overflow it",
			i, left.Rows[p.L].ID, right.Rows[p.R].ID)
	}
	var out []Pair
	for i, p := range res.Pairs {
		if matches[i] {
			out = append(out, Pair{
				LeftID:     left.Rows[p.L].ID,
				RightID:    right.Rows[p.R].ID,
				Confidence: scores[i],
			})
		}
	}
	return out, len(res.Pairs), nil
}

// extractorFor returns the cached extractor for the schema, building and
// caching a fresh one when the schema (or featurization) changed since
// the last call.
func (m *Matcher) extractorFor(schema []string) (dim int, boolExt *feature.BoolExtractor, ext *feature.Extractor, err error) {
	if m.Features == ExtendedFeatures && m.Corpus == nil {
		return 0, nil, nil, fmt.Errorf("match: ExtendedFeatures requires Corpus (the training-time document-frequency statistics)")
	}
	key := fmt.Sprintf("%d\x1f%s", m.Features, strings.Join(schema, "\x1f"))
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cacheKey == key {
		m.hits.Add(1)
	} else {
		m.misses.Add(1)
		m.cacheKey = key
		m.ext, m.boolExt = nil, nil
		switch m.Features {
		case BoolFeatures:
			m.boolExt = feature.NewBoolExtractor(schema)
		case ExtendedFeatures:
			m.ext = feature.NewExtendedExtractor(schema, m.Corpus)
		default:
			m.ext = feature.NewExtractor(schema)
		}
	}
	if m.boolExt != nil {
		return m.boolExt.Dim(), m.boolExt, nil, nil
	}
	return m.ext.Dim(), nil, m.ext, nil
}

// ValidateDim checks a learner's feature space against an extractor
// dimensionality. Learners that know their exact training width (SVM,
// neural net: Dim) must match it exactly; learners that only bound it
// (forest, rules: MinDim — a tree may never split on the last feature)
// must not reference coordinates beyond dim. Untrained learners (width
// 0) pass: they carry no feature space to contradict.
func ValidateDim(l core.Learner, dim int) error {
	switch v := l.(type) {
	case interface{ Dim() int }:
		if d := v.Dim(); d != 0 && d != dim {
			return fmt.Errorf("match: learner %s was trained on %d-dim vectors but the extractor produces %d (schema or featurization mismatch)",
				l.Name(), d, dim)
		}
	case interface{ MinDim() int }:
		if d := v.MinDim(); d > dim {
			return fmt.Errorf("match: learner %s references feature %d but the extractor produces only %d dims (schema or featurization mismatch)",
				l.Name(), d-1, dim)
		}
	}
	return nil
}

// Decide sweeps X through l's decision values (see core.Decider) once,
// serially, checking ctx every ctxCheckEvery rows. For each row it
// returns whether l predicts a match (value > threshold, which is
// Predict bit for bit) and a [0, 1] probability-like match confidence:
// the value through one link picked per call. The link is the identity
// where the value already is a confidence (a forest's vote fraction, the
// rule model's and the Predict adapter's 0/1) and the sigmoid for every
// other DecisionLearner (SVM and net margins, naive Bayes log-odds).
func Decide(ctx context.Context, l core.Learner, X []feature.Vector) (scores []float64, matches []bool, err error) {
	link := identity
	switch l.(type) {
	case core.VoteLearner, *rules.Model:
	case core.DecisionLearner:
		link = sigmoid
	}
	dl := core.Decider(l)
	scores = make([]float64, len(X))
	rows := make([]int, min(len(X), ctxCheckEvery))
	for k := range rows {
		rows[k] = k
	}
	for lo := 0; lo < len(X); lo += ctxCheckEvery {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		hi := min(lo+ctxCheckEvery, len(X))
		dl.DecisionValues(X[lo:hi], rows[:hi-lo], scores[lo:hi])
	}
	matches = make([]bool, len(X))
	th := dl.DecisionThreshold()
	for i, v := range scores {
		matches[i] = v > th
		scores[i] = link(v)
	}
	return scores, matches, nil
}

// ScoreAll is Decide's confidences alone. The serving layer's /v1/score
// path runs merged request batches through Decide.
func ScoreAll(ctx context.Context, l core.Learner, X []feature.Vector) ([]float64, error) {
	scores, _, err := Decide(ctx, l, X)
	return scores, err
}

// FirstNonFinite returns the index of the first score that is NaN or
// ±Inf, or -1 when every score is finite. Finite features can still
// overflow a learner's arithmetic (1e308 and -1e308 sum to NaN), and
// JSON has no encoding for a non-finite score, so /v1/match and
// /v1/score both refuse a row it names.
func FirstNonFinite(scores []float64) int {
	for i, sc := range scores {
		if math.IsNaN(sc) || math.IsInf(sc, 0) {
			return i
		}
	}
	return -1
}

func sigmoid(v float64) float64 { return 1 / (1 + math.Exp(-v)) }

func identity(v float64) float64 { return v }
