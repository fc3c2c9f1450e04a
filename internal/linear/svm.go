// Package linear implements the linear classifier of the benchmark: a
// binary soft-margin SVM trained in the primal with Pegasos-style
// stochastic sub-gradient descent on hinge loss. The paper's linear
// learner (§4.2.1, Weka SMO) exposes exactly the surface needed by the
// framework — a weight vector, a bias, and a margin |w·x + b| used both
// by margin-based example selection and by the §5.1 blocking-dimension
// optimization — and this implementation provides the same surface.
package linear

import (
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
// the cumulative labeled set each active learning iteration.
func (s *SVM) Train(X []feature.Vector, y []bool) {
	if len(X) == 0 {
		s.w, s.b = nil, 0
		return
	}
	dim := len(X[0])
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
		for _, i := range idx {
			eta := 1 / (s.Lambda * (t + 100))
			t++
			yi := -1.0
			if y[i] {
				yi = 1
			}
			score := s.decision(X[i])
			shrink := 1 - eta*s.Lambda
			for j := range s.w {
				s.w[j] *= shrink
			}
			s.b *= shrink
			if yi*score < 1 {
				step := eta * yi
				if y[i] && s.PosWeight > 1 {
					step *= s.PosWeight
				}
				for j, xj := range X[i] {
					s.w[j] += step * xj
				}
				s.b += step
			}
		}
	}
}

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
