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
	// Confidence is Score for the pair's feature vector: a [0, 1]
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
}

// ExtractorReuse reports how often Match reused its cached extractor
// (hit) versus building one for a new schema (miss) — the pool-reuse
// rate the serving layer exports on /metrics.
func (m *Matcher) ExtractorReuse() (hits, misses uint64) {
	return m.hits.Load(), m.misses.Load()
}

// ctxCheckEvery is how many candidate pairs are scored between context
// cancellation checks in the Match scoring loop.
const ctxCheckEvery = 512

// Match blocks left × right, featurizes the candidates, and returns the
// pairs the learner predicts as matches (with per-pair confidence), plus
// the number of candidates scored. It honours ctx cancellation between
// pipeline stages and periodically within the scoring loop.
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
	res, err := blocking.Generate(ctx, blocking.NewCandidateIndex(d, blocking.IndexOptions{}))
	if err != nil {
		return nil, 0, err
	}

	var X []feature.Vector
	if m.Features == BoolFeatures {
		bits := boolExt.ExtractPairs(d, res.Pairs)
		X = make([]feature.Vector, len(bits))
		for i, row := range bits {
			v := make(feature.Vector, len(row))
			for j, b := range row {
				if b {
					v[j] = 1
				}
			}
			X[i] = v
		}
	} else if X, err = ext.ExtractPairsContext(ctx, d, res.Pairs); err != nil {
		return nil, 0, err
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}

	var out []Pair
	for i, p := range res.Pairs {
		if i%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
		}
		if m.Learner.Predict(X[i]) {
			out = append(out, Pair{
				LeftID:     left.Rows[p.L].ID,
				RightID:    right.Rows[p.R].ID,
				Confidence: Score(m.Learner, X[i]),
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

// Score returns a [0, 1] probability-like match confidence for one
// feature vector, using the most informative surface the learner
// exposes: a calibrated probability (neural net), a squashed decision
// value (SVM), the committee vote fraction (forest), a squashed margin,
// or — for learners with none of these, like the DNF rule model — the
// hard 0/1 prediction.
func Score(l core.Learner, x feature.Vector) float64 {
	switch v := l.(type) {
	case interface{ Prob(feature.Vector) float64 }:
		return v.Prob(x)
	case interface{ DecisionValue(feature.Vector) float64 }:
		return sigmoid(v.DecisionValue(x))
	case core.VoteLearner:
		pos, total := v.Votes(x)
		if total == 0 {
			return boolScore(l.Predict(x))
		}
		return float64(pos) / float64(total)
	case core.MarginLearner:
		// Margin magnitude plus the predicted side: some implementations
		// report |margin| only.
		mag := math.Abs(v.Margin(x))
		if l.Predict(x) {
			return sigmoid(mag)
		}
		return sigmoid(-mag)
	}
	return boolScore(l.Predict(x))
}

// ScoreAll scores a batch of vectors, checking ctx periodically. The
// serving layer's /v1/score path runs merged request batches through it.
func ScoreAll(ctx context.Context, l core.Learner, X []feature.Vector) ([]float64, error) {
	out := make([]float64, len(X))
	for i, x := range X {
		if i%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		out[i] = Score(l, x)
	}
	return out, nil
}

func sigmoid(v float64) float64 { return 1 / (1 + math.Exp(-v)) }

func boolScore(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
