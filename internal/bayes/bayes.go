// Package bayes implements a Gaussian naive Bayes classifier. It is not
// one of the paper's four benchmarked learner families, but it is the
// other classic QBC committee member in the EM literature (Sarawagi &
// Bhamidipaty, KDD 2002 — cited in the paper's §1), and the framework's
// plug-and-play claim is best demonstrated by plugging in a learner the
// paper did NOT evaluate: NaiveBayes satisfies core.DecisionLearner and
// core.MarginLearner and composes with QBC, margin and the active
// ensemble without framework changes.
package bayes

import (
	"math"

	"github.com/alem/alem/internal/feature"
)

// NaiveBayes is a Gaussian naive Bayes binary classifier. Construct with
// New.
type NaiveBayes struct {
	// VarSmoothing is added to every per-feature variance to keep
	// log-densities finite on constant features.
	VarSmoothing float64

	trained    bool
	logPrior   [2]float64
	mean, vari [2][]float64
}

// New returns a classifier with default smoothing.
func New() *NaiveBayes { return &NaiveBayes{VarSmoothing: 1e-4} }

// Name implements the learner interface.
func (nb *NaiveBayes) Name() string { return "naive-bayes" }

// Train fits per-class feature means and variances from scratch.
func (nb *NaiveBayes) Train(X []feature.Vector, y []bool) {
	nb.trained = false
	if len(X) == 0 {
		return
	}
	dim := len(X[0])
	var count [2]int
	for c := 0; c < 2; c++ {
		nb.mean[c] = make([]float64, dim)
		nb.vari[c] = make([]float64, dim)
	}
	for i, x := range X {
		c := classOf(y[i])
		count[c]++
		for j, v := range x {
			nb.mean[c][j] += v
		}
	}
	for c := 0; c < 2; c++ {
		if count[c] == 0 {
			continue
		}
		for j := range nb.mean[c] {
			nb.mean[c][j] /= float64(count[c])
		}
	}
	for i, x := range X {
		c := classOf(y[i])
		for j, v := range x {
			d := v - nb.mean[c][j]
			nb.vari[c][j] += d * d
		}
	}
	total := float64(len(X))
	for c := 0; c < 2; c++ {
		if count[c] == 0 {
			// Unseen class: uniform fallback keeps predictions defined.
			nb.logPrior[c] = math.Inf(-1)
			for j := range nb.vari[c] {
				nb.vari[c][j] = 1
			}
			continue
		}
		nb.logPrior[c] = math.Log(float64(count[c]) / total)
		for j := range nb.vari[c] {
			nb.vari[c][j] = nb.vari[c][j]/float64(count[c]) + nb.VarSmoothing
		}
	}
	nb.trained = true
}

func classOf(match bool) int {
	if match {
		return 1
	}
	return 0
}

// logLikelihood returns log P(x | class) + log prior.
func (nb *NaiveBayes) logLikelihood(x feature.Vector, c int) float64 {
	ll := nb.logPrior[c]
	for j, v := range x {
		variance := nb.vari[c][j]
		d := v - nb.mean[c][j]
		ll += -0.5*math.Log(2*math.Pi*variance) - d*d/(2*variance)
	}
	return ll
}

// value is log P(match|x) − log P(non-match|x), or 0 untrained.
func (nb *NaiveBayes) value(x feature.Vector) float64 {
	if !nb.trained {
		return 0
	}
	return nb.logLikelihood(x, 1) - nb.logLikelihood(x, 0)
}

// Margin returns |log P(match|x) − log P(non-match|x)|, a confidence
// margin compatible with margin-based selection.
func (nb *NaiveBayes) Margin(x feature.Vector) float64 { return math.Abs(nb.value(x)) }

// Predict labels x as matching when the match posterior dominates.
func (nb *NaiveBayes) Predict(x feature.Vector) bool { return nb.value(x) > 0 }

// DecisionValues writes log P(match|x) − log P(non-match|x) of
// x = X[rows[k]] into out[k], 0 when untrained: the value Predict
// compares with DecisionThreshold, and whose magnitude is Margin. out
// must have room for len(rows) values.
func (nb *NaiveBayes) DecisionValues(X []feature.Vector, rows []int, out []float64) {
	for k, row := range rows {
		out[k] = nb.value(X[row])
	}
}

// DecisionThreshold returns 0, the log-odds Predict requires a match to
// exceed.
func (nb *NaiveBayes) DecisionThreshold() float64 { return 0 }
