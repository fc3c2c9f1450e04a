// Package linear implements the linear classifier of the benchmark: a
// binary soft-margin SVM trained in the primal with Pegasos-style
// stochastic sub-gradient descent on hinge loss. The paper's linear
// learner (§4.2.1, Weka SMO) exposes exactly the surface needed by the
// framework — a weight vector, a bias, and a margin |w·x + b| used both
// by margin-based example selection and by the §5.1 blocking-dimension
// optimization — and this implementation provides the same surface.
package linear

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/alem/alem/internal/feature"
)

// SVM is a binary linear classifier. The zero value is not usable; call
// NewSVM.
type SVM struct {
	// Lambda is the L2 regularization strength.
	Lambda float64
	// Epochs is the number of passes over the training set.
	Epochs int
	// PosWeight scales the loss of positive (matching) examples; values
	// above 1 counter the class skew pervasive in EM candidate pools
	// (§2 notes skew is why plain accuracy objectives fail for EM).
	// 0 or 1 means unweighted.
	PosWeight float64

	w    []float64
	b    float64
	rand *rand.Rand
}

// NewSVM returns an SVM with the benchmark's default hyper-parameters.
// The seed controls example shuffling only.
func NewSVM(seed int64) *SVM {
	return &SVM{Lambda: 1e-4, Epochs: 60, rand: rand.New(rand.NewSource(seed))}
}

// Name implements the learner interface.
func (s *SVM) Name() string { return "linear-svm" }

// Train fits the classifier to the labeled vectors. Training is done from
// scratch on every call, matching the benchmark protocol of retraining on
// the cumulative labeled set each active learning iteration. Every row of
// X must have the first row's width (Train panics otherwise); pool
// feature vectors always do.
//
// Each sample makes one pass over w that applies its shrink and hinge
// update and computes the next sample's decision value with the weights
// it just wrote. The arithmetic is that of separate shrink, update and
// decision passes (frozen in legacy_equiv_test.go), so the fit is
// bit-identical to them; see sgdStep.
func (s *SVM) Train(X []feature.Vector, y []bool) {
	if len(X) == 0 {
		s.w, s.b = nil, 0
		return
	}
	dim := len(X[0])
	for _, x := range X {
		if len(x) != dim {
			panic(fmt.Sprintf("linear: training row of width %d, want the first row's %d", len(x), dim))
		}
	}
	// Bias as a weight on an implicit constant-1 feature, so the same
	// sub-gradient step and L2 shrink apply to it.
	s.w = make([]float64, dim)
	s.b = 0
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	t := 1.0
	for epoch := 0; epoch < s.Epochs; epoch++ {
		s.rand.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		score := s.decision(X[idx[0]])
		for k, i := range idx {
			eta := 1 / (s.Lambda * (t + 100))
			t++
			yi := -1.0
			if y[i] {
				yi = 1
			}
			shrink := 1 - eta*s.Lambda
			hinge := yi*score < 1
			step := 0.0
			if hinge {
				step = eta * yi
				if y[i] && s.PosWeight > 1 {
					step *= s.PosWeight
				}
			}
			// The epoch's last sample scores itself, a value nobody
			// reads: the next epoch's first decision follows its shuffle.
			next := X[i]
			if k+1 < len(idx) {
				next = X[idx[k+1]]
			}
			score = s.sgdStep(X[i], hinge, shrink, step, next)
		}
	}
}

// sgdStep applies one sample's update in a single pass over w: every
// weight and the bias shrink, and on a hinge hit (hinge) they also take
// step·x. It returns next's decision value under the updated model. x
// and next must be Dim() wide.
//
// Each weight keeps its two roundings, shrink then step (the float64
// conversion forbids fusing them into one), and the decision keeps one
// accumulator that starts at the updated bias and adds the features in
// order, so every value is the one separate passes produce.
func (s *SVM) sgdStep(x feature.Vector, hinge bool, shrink, step float64, next feature.Vector) float64 {
	w := s.w
	next = next[:len(w)]
	s.b *= shrink
	if !hinge {
		d := s.b
		for j := range w {
			wj := w[j] * shrink
			w[j] = wj
			d += wj * next[j]
		}
		return d
	}
	s.b += step
	d := s.b
	x = x[:len(w)]
	for j := range w {
		wj := float64(w[j]*shrink) + step*x[j]
		w[j] = wj
		d += wj * next[j]
	}
	return d
}

// decision is w·x + b for one row: one accumulator that starts at the
// bias and adds the features in order.
func (s *SVM) decision(x feature.Vector) float64 {
	d := s.b
	for j, xj := range x {
		d += s.w[j] * xj
	}
	return d
}

// DecisionValue returns w·x + b (signed).
func (s *SVM) DecisionValue(x feature.Vector) float64 {
	if len(s.w) == 0 {
		return 0
	}
	return s.decision(x)
}

// DecisionValues writes DecisionValue(X[rows[k]]) into out[k] for every
// k, bit for bit. Four rows share each pass over w, each with its own
// accumulator that starts at b and adds the features in order, so their
// add chains overlap instead of waiting on each other. A group holding a
// row whose width is not Dim(), and the last len(rows)%4 rows, are scored
// one row at a time exactly as DecisionValue scores them; an untrained
// model writes 0. out must have room for len(rows) values.
func (s *SVM) DecisionValues(X []feature.Vector, rows []int, out []float64) {
	out = out[:len(rows)]
	w := s.w
	if len(w) == 0 {
		clear(out)
		return
	}
	k := 0
	for ; k+4 <= len(rows); k += 4 {
		x0, x1, x2, x3 := X[rows[k]], X[rows[k+1]], X[rows[k+2]], X[rows[k+3]]
		if len(x0) != len(w) || len(x1) != len(w) || len(x2) != len(w) || len(x3) != len(w) {
			for m := k; m < k+4; m++ {
				out[m] = s.decision(X[rows[m]])
			}
			continue
		}
		x0, x1, x2, x3 = x0[:len(w)], x1[:len(w)], x2[:len(w)], x3[:len(w)]
		d0, d1, d2, d3 := s.b, s.b, s.b, s.b
		for j, wj := range w {
			d0 += wj * x0[j]
			d1 += wj * x1[j]
			d2 += wj * x2[j]
			d3 += wj * x3[j]
		}
		out[k], out[k+1], out[k+2], out[k+3] = d0, d1, d2, d3
	}
	for ; k < len(rows); k++ {
		out[k] = s.decision(X[rows[k]])
	}
}

// DecisionThreshold returns 0, the value DecisionValue must exceed for
// Predict to report a match.
func (s *SVM) DecisionThreshold() float64 { return 0 }

// Margin returns |w·x + b|, the distance proxy used by margin-based
// example selection (§4.2.1): the sign is ignored because ambiguous
// examples are selected from both classes.
func (s *SVM) Margin(x feature.Vector) float64 { return math.Abs(s.DecisionValue(x)) }

// Predict classifies one vector.
func (s *SVM) Predict(x feature.Vector) bool { return s.DecisionValue(x) > 0 }

// PredictAll classifies a batch.
func (s *SVM) PredictAll(X []feature.Vector) []bool {
	out := make([]bool, len(X))
	for i, x := range X {
		out[i] = s.Predict(x)
	}
	return out
}

// Weights returns the learned weight vector (not a copy). The §5.1
// blocking optimization reads it to find the top-K |weight| dimensions.
func (s *SVM) Weights() []float64 { return s.w }

// Bias returns the learned bias term.
func (s *SVM) Bias() float64 { return s.b }

// Dim returns the feature dimensionality the model was trained on, or 0
// for an untrained model. Deployment-time schema validation uses it to
// reject extractors that do not reproduce the training feature space.
func (s *SVM) Dim() int { return len(s.w) }

// Clone returns an untrained copy with the same hyper-parameters and an
// independent RNG derived from seed; QBC committees use it to train B
// classifiers on bootstrap resamples.
func (s *SVM) Clone(seed int64) *SVM {
	return &SVM{Lambda: s.Lambda, Epochs: s.Epochs, PosWeight: s.PosWeight,
		rand: rand.New(rand.NewSource(seed))}
}
