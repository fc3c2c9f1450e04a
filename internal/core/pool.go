package core

import (
	"context"
	"fmt"

	"github.com/alem/alem/internal/blocking"
	"github.com/alem/alem/internal/dataset"
	"github.com/alem/alem/internal/feature"
)

// Pool is the post-blocking candidate-pair universe one active-learning
// run operates on: feature vectors plus hidden ground truth. The truth is
// consulted only by the Oracle (possibly with noise) and by the evaluator;
// learners and selectors see vectors alone.
type Pool struct {
	Pairs []dataset.PairKey
	X     []feature.Vector
	Truth []bool
}

// blockCandidates runs the dataset through the indexed candidate
// generator under ctx.
func blockCandidates(ctx context.Context, d *dataset.Dataset) (*blocking.Result, error) {
	return blocking.Generate(ctx, blocking.NewCandidateIndex(d, blocking.IndexOptions{}))
}

// mustBlock is blockCandidates for the non-context constructors: under
// the background context generation cannot fail, so an error is a bug.
func mustBlock(d *dataset.Dataset) *blocking.Result {
	res, err := blockCandidates(context.Background(), d)
	if err != nil {
		panic(fmt.Sprintf("core: uncancellable blocking failed: %v", err))
	}
	return res
}

// NewPool blocks the dataset and featurizes the surviving candidate pairs
// with the standard 21-metric extractor.
func NewPool(d *dataset.Dataset) *Pool {
	res := mustBlock(d)
	return poolFrom(d, res.Pairs, feature.NewExtractor(d.Left.Schema).ExtractPairs(d, res.Pairs))
}

// NewPoolContext is NewPool with cancellable candidate generation and
// featurization; it returns the context's error if either is cut short.
func NewPoolContext(ctx context.Context, d *dataset.Dataset) (*Pool, error) {
	res, err := blockCandidates(ctx, d)
	if err != nil {
		return nil, err
	}
	X, err := feature.NewExtractor(d.Left.Schema).ExtractPairsContext(ctx, d, res.Pairs)
	if err != nil {
		return nil, err
	}
	return poolFrom(d, res.Pairs, X), nil
}

// NewBoolPool is NewPool for the rule learner: Boolean atoms encoded as
// 0/1 float vectors.
func NewBoolPool(d *dataset.Dataset) *Pool {
	res := mustBlock(d)
	ext := feature.NewBoolExtractor(d.Left.Schema)
	bits := ext.ExtractPairs(d, res.Pairs)
	X := make([]feature.Vector, len(bits))
	for i, row := range bits {
		v := make(feature.Vector, len(row))
		for j, b := range row {
			if b {
				v[j] = 1
			}
		}
		X[i] = v
	}
	return poolFrom(d, res.Pairs, X)
}

// NewExtendedPool is NewPool with the extended 25-metric feature set
// (standard 21 plus TF-IDF cosine, SoftTFIDF, numeric similarity and
// generalized Jaccard, weighted over the dataset's own corpus).
func NewExtendedPool(d *dataset.Dataset) *Pool {
	res := mustBlock(d)
	ext := feature.NewExtendedExtractor(d.Left.Schema, feature.CorpusOf(d))
	return poolFrom(d, res.Pairs, ext.ExtractPairs(d, res.Pairs))
}

// NewPoolFromPairs featurizes an explicit pair list (used when one
// blocking pass feeds several pools, or in tests).
func NewPoolFromPairs(d *dataset.Dataset, pairs []dataset.PairKey) *Pool {
	ext := feature.NewExtractor(d.Left.Schema)
	return poolFrom(d, pairs, ext.ExtractPairs(d, pairs))
}

func poolFrom(d *dataset.Dataset, pairs []dataset.PairKey, X []feature.Vector) *Pool {
	truth := make([]bool, len(pairs))
	for i, p := range pairs {
		truth[i] = d.IsMatch(p)
	}
	return &Pool{Pairs: pairs, X: X, Truth: truth}
}

// NewPoolFromVectors builds a pool directly from vectors and labels,
// bypassing datasets entirely; unit tests and synthetic micro-benchmarks
// use it.
func NewPoolFromVectors(X []feature.Vector, truth []bool) *Pool {
	pairs := make([]dataset.PairKey, len(X))
	for i := range pairs {
		pairs[i] = dataset.PairKey{L: i, R: i}
	}
	return &Pool{Pairs: pairs, X: X, Truth: truth}
}

// Len returns the number of candidate pairs.
func (p *Pool) Len() int { return len(p.X) }

// Skew returns the fraction of true matches in the pool.
func (p *Pool) Skew() float64 {
	if p.Len() == 0 {
		return 0
	}
	m := 0
	for _, t := range p.Truth {
		if t {
			m++
		}
	}
	return float64(m) / float64(p.Len())
}
