// Package core is the active-learning framework itself (§3): the learner
// and example-selector abstractions of Fig. 2 — expressed as Go interfaces
// rather than class inheritance — the active-learning loop that ties
// learner, selector, Oracle and evaluator together, and the two §5
// enhancements (blocking dimensions and active ensembles).
package core

import (
	"sync"

	"github.com/alem/alem/internal/feature"
	"github.com/alem/alem/internal/par"
)

// Learner is the base "learner" of the framework (Fig. 2): anything that
// can be retrained from scratch on the cumulative labeled set and queried
// for labels. linear.SVM, neural.Net, tree.Forest, rules.Model and
// bayes.NaiveBayes satisfy it structurally, and all five are also
// DecisionLearners.
type Learner interface {
	Name() string
	Train(X []feature.Vector, y []bool)
	Predict(x feature.Vector) bool
}

// MarginLearner is a learner exposing a confidence margin — linear
// classifiers (|w·x+b|, §4.2.1) and the neural network (affine output
// magnitude, §4.2.2). Margin-based selection requires it; this is how the
// framework records that margin is incompatible with forests and rules.
// core reads only |Margin(x)|, so a learner may report the margin signed
// (the net) or unsigned (the SVM, naive Bayes).
type MarginLearner interface {
	Learner
	Margin(x feature.Vector) float64
}

// DecisionLearner is a learner whose prediction comes from one value per
// example: Predict(x) is value > DecisionThreshold(), bit for bit.
// linear.SVM's value is w·x + b, neural.Net's is its Margin and
// bayes.NaiveBayes's is log P(match|x) − log P(non-match|x) (0 when
// untrained), each with threshold 0, so a margin selector's |Margin(x)|
// is |value|. tree.Forest's value is its positive vote fraction
// float64(pos)/float64(total) (0 when untrained), with threshold
// VoteThreshold (0.5 when that is ≤ 0); rules.Model's is 1 when a rule
// covers the example and 0 otherwise, with threshold 0. Any learner that
// is also a MarginLearner or a VoteLearner must keep the matching
// identity. DecisionValues writes the value of X[rows[k]] into out[k],
// bit-identical to the per-row value, and scores a block of rows at
// least as fast as row by row, so pool sweeps hand it whole blocks (see
// countPositive and candidateValues). A Progressive session keeps
// evaluation's values of every pool row and hands them to the selector,
// so the pool is swept once per step (see SelectContext.valuesOf).
type DecisionLearner interface {
	Learner
	DecisionValues(X []feature.Vector, rows []int, out []float64)
	DecisionThreshold() float64
}

// Decider returns l itself when it is a DecisionLearner, and otherwise
// l behind an adapter whose value is 1 for a predicted match and 0
// otherwise, with threshold 0. Sweeps wrap a learner once per call and
// score every block through DecisionValues.
func Decider(l Learner) DecisionLearner {
	if dl, ok := l.(DecisionLearner); ok {
		return dl
	}
	return predicted{l}
}

// predicted is Decider's adapter for a learner that only predicts.
type predicted struct{ Learner }

func (p predicted) DecisionValues(X []feature.Vector, rows []int, out []float64) {
	for k, row := range rows {
		out[k] = 0
		if p.Predict(X[row]) {
			out[k] = 1
		}
	}
}

func (predicted) DecisionThreshold() float64 { return 0 }

// countPositive adds 1 to pos[k] for each row X[rows[k]] of a sweep
// block that dl predicts a match: one DecisionValues call over the
// block, whose threshold is read once per block.
func countPositive(dl DecisionLearner, X []feature.Vector, rows []int, pos []int) {
	vals := blockValues(dl, X, rows)
	defer blockScratch.Put(vals)
	th := dl.DecisionThreshold()
	for k, v := range vals[:len(rows)] {
		if v > th {
			pos[k]++
		}
	}
}

// blockValues returns dl's values of a sweep block's rows in a buffer
// from blockScratch; the caller puts it back.
func blockValues(dl DecisionLearner, X []feature.Vector, rows []int) *[par.Stride]float64 {
	vals := blockScratch.Get().(*[par.Stride]float64)
	dl.DecisionValues(X, rows, vals[:len(rows)])
	return vals
}

// blockScratch recycles the buffer a sweep block's DecisionValues call
// writes into. The buffer escapes through the interface call, so a
// stack array would cost one heap allocation per block.
var blockScratch = sync.Pool{New: func() any { return new([par.Stride]float64) }}

// VoteLearner is a learner that *is* a committee in a learner-aware way:
// random forests, whose trees vote (§4.1.1). Learner-aware QBC requires
// it. Its decision value is the positive vote fraction P/C, so the QBC
// variance is value·(1 − value).
type VoteLearner interface {
	DecisionLearner
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
