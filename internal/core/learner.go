// Package core is the active-learning framework itself (§3): the learner
// and example-selector abstractions of Fig. 2 — expressed as Go interfaces
// rather than class inheritance — the active-learning loop that ties
// learner, selector, Oracle and evaluator together, and the two §5
// enhancements (blocking dimensions and active ensembles).
package core

import (
	"math"
	"sync"

	"github.com/alem/alem/internal/feature"
)

// Learner is the base "learner" of the framework (Fig. 2): anything that
// can be retrained from scratch on the cumulative labeled set and queried
// for labels. linear.SVM, neural.Net, tree.Forest and rules.Model satisfy
// it structurally.
type Learner interface {
	Name() string
	Train(X []feature.Vector, y []bool)
	Predict(x feature.Vector) bool
	PredictAll(X []feature.Vector) []bool
}

// MarginLearner is a learner exposing a confidence margin — linear
// classifiers (|w·x+b|, §4.2.1) and the neural network (affine output
// magnitude, §4.2.2). Margin-based selection requires it; this is how the
// framework records that margin is incompatible with forests and rules.
type MarginLearner interface {
	Learner
	Margin(x feature.Vector) float64
}

// DecisionLearner is a learner whose prediction comes from one value per
// example: Predict(x) is value > DecisionThreshold(), bit for bit.
// linear.SVM's value is w·x + b and neural.Net's is its Margin, both with
// threshold 0, so a margin selector's |Margin(x)| is |value|.
// tree.Forest's value is its positive vote fraction
// float64(pos)/float64(total) (0 when untrained), with threshold
// VoteThreshold (0.5 when that is ≤ 0), so learner-aware QBC's variance
// is value·(1 − value). Any learner that is also a MarginLearner or a
// VoteLearner must keep the matching identity. DecisionValues writes the
// value of X[rows[k]] into out[k], bit-identical to the per-row value,
// and scores a block of rows at least as fast as row by row, so pool
// sweeps hand it whole blocks (see countPositive and absMargins). A
// Progressive session keeps evaluation's values of every pool row and
// hands them to the selector, so the pool is swept once per step (see
// SelectContext.valuesOf).
type DecisionLearner interface {
	Learner
	DecisionValues(X []feature.Vector, rows []int, out []float64)
	DecisionThreshold() float64
}

// countPositive adds 1 to pos[k] for each row X[rows[k]] of a sweep
// block that l predicts a match: one DecisionValues call over the block
// for a DecisionLearner, whose threshold is read once per block, and
// Predict row by row for any other learner.
func countPositive(l Learner, X []feature.Vector, rows []int, pos []int) {
	dl, ok := l.(DecisionLearner)
	if !ok {
		for k, row := range rows {
			if l.Predict(X[row]) {
				pos[k]++
			}
		}
		return
	}
	vals := blockScratch.Get().(*[cancelCheckStride]float64)
	defer blockScratch.Put(vals)
	dl.DecisionValues(X, rows, vals[:len(rows)])
	th := dl.DecisionThreshold()
	for k, v := range vals[:len(rows)] {
		if v > th {
			pos[k]++
		}
	}
}

// absMargins writes |Margin(X[rows[k]])| into out[k] for each row of a
// sweep block: one DecisionValues call over the block for a
// DecisionLearner, Margin row by row for any other learner.
func absMargins(ml MarginLearner, X []feature.Vector, rows []int, out []float64) {
	dl, ok := ml.(DecisionLearner)
	if !ok {
		for k, row := range rows {
			out[k] = math.Abs(ml.Margin(X[row]))
		}
		return
	}
	vals := blockScratch.Get().(*[cancelCheckStride]float64)
	defer blockScratch.Put(vals)
	dl.DecisionValues(X, rows, vals[:len(rows)])
	for k, v := range vals[:len(rows)] {
		out[k] = math.Abs(v)
	}
}

// blockScratch recycles the buffer a sweep block's DecisionValues call
// writes into. The buffer escapes through the interface call, so a
// stack array would cost one heap allocation per block.
var blockScratch = sync.Pool{New: func() any { return new([cancelCheckStride]float64) }}

// VoteLearner is a learner that *is* a committee in a learner-aware way:
// random forests, whose trees vote (§4.1.1). Learner-aware QBC requires
// it.
type VoteLearner interface {
	Learner
	Votes(x feature.Vector) (pos, total int)
}

// WeightedLinear exposes the weight vector and bias of a linear model.
// The §5.1 blocking-dimension optimization requires it to find the top-K
// |weight| dimensions.
type WeightedLinear interface {
	MarginLearner
	Weights() []float64
	Bias() float64
}

// Factory creates a fresh untrained learner from a seed. Learner-agnostic
// QBC uses it to build bootstrap committees (§4.1); passing a factory
// rather than cloning keeps the committee construction fully decoupled
// from the learner in use, per Mozafari et al.
type Factory func(seed int64) Learner
