package linear

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/alem/alem/internal/feature"
)

// This file pins SVM.Train and SVM.DecisionValues to the kernels they
// replaced: the separate shrink, update and decision passes of the
// original trainer, frozen verbatim below as legacyTrain and
// legacyDecision. The frozen code is copy-pasted on purpose; do not make
// it call the current implementation, or the test becomes tautological.

// legacyTrain is the pre-fusion SVM.Train.
func legacyTrain(s *SVM, X []feature.Vector, y []bool) {
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
			score := legacyDecision(s, X[i])
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

// legacyDecision is the pre-fusion SVM.decision.
func legacyDecision(s *SVM, x feature.Vector) float64 {
	d := s.b
	for j, xj := range x {
		d += s.w[j] * xj
	}
	return d
}

// legacyData builds n rows of the given width whose labels follow a
// noisy linear rule, so the fit sees hinge hits on both classes. Every
// seventh row is all zeros and every eleventh repeats an earlier row
// (the same slice, as a bootstrap resample lists it).
func legacyData(n, width int, seed int64) ([]feature.Vector, []bool) {
	r := rand.New(rand.NewSource(seed))
	dir := make([]float64, width)
	for j := range dir {
		dir[j] = r.Float64()*2 - 1
	}
	X := make([]feature.Vector, n)
	y := make([]bool, n)
	for i := range X {
		switch {
		case i > 0 && i%11 == 0:
			src := r.Intn(i)
			X[i], y[i] = X[src], y[src]
			continue
		case i%7 == 6:
			X[i] = make(feature.Vector, width)
		default:
			X[i] = make(feature.Vector, width)
			for j := range X[i] {
				X[i][j] = r.Float64()
			}
		}
		dot := 0.0
		for j, v := range X[i] {
			dot += dir[j] * (v - 0.5)
		}
		y[i] = (dot > 0) != (r.Intn(10) == 0)
	}
	return X, y
}

// assertSameFit compares every weight, the bias and the next RNG draw.
func assertSameFit(t *testing.T, got, want *SVM) {
	t.Helper()
	if len(got.w) != len(want.w) {
		t.Fatalf("len(w) = %d, want %d", len(got.w), len(want.w))
	}
	for j := range want.w {
		if math.Float64bits(got.w[j]) != math.Float64bits(want.w[j]) {
			t.Fatalf("w[%d] = %v (%#x), want %v (%#x)", j, got.w[j], math.Float64bits(got.w[j]),
				want.w[j], math.Float64bits(want.w[j]))
		}
	}
	if math.Float64bits(got.b) != math.Float64bits(want.b) {
		t.Fatalf("b = %v, want %v", got.b, want.b)
	}
	if g, w := got.rand.Int63(), want.rand.Int63(); g != w {
		t.Fatalf("next RNG draw %d, want %d", g, w)
	}
}

// TestSVMTrainMatchesLegacy fits the fused trainer and the frozen one
// on the same rows and seed, and requires bit-equal weights and bias and
// the same RNG position, across training-set sizes, widths (below,
// at and past a multiple of four, up to baby-products' 294), positive
// weights, single-class label sets, all-zero and duplicated rows.
func TestSVMTrainMatchesLegacy(t *testing.T) {
	for _, n := range []int{1, 2, 3, 160, 500} {
		for _, width := range []int{1, 3, 4, 5, 63, 84, 294} {
			X, y := legacyData(n, width, int64(n*1000+width))
			allPos := make([]bool, n)
			for i := range allPos {
				allPos[i] = true
			}
			labelSets := map[string][]bool{"mixed": y, "all-positive": allPos, "all-negative": make([]bool, n)}
			for name, labels := range labelSets {
				for _, pw := range []float64{0, 1, 3} {
					t.Run(fmt.Sprintf("n=%d/width=%d/%s/pw=%v", n, width, name, pw), func(t *testing.T) {
						seed := int64(n + width)
						got, want := NewSVM(seed), NewSVM(seed)
						got.PosWeight, want.PosWeight = pw, pw
						got.Train(X, labels)
						legacyTrain(want, X, labels)
						assertSameFit(t, got, want)
					})
				}
			}
		}
	}
	// Short fits: no epoch, one, and a few on one to three rows.
	for _, epochs := range []int{0, 1, 2} {
		for _, n := range []int{1, 2, 3} {
			X, y := legacyData(n, 5, int64(epochs*10+n))
			got, want := NewSVM(9), NewSVM(9)
			got.Epochs, want.Epochs = epochs, epochs
			got.Train(X, y)
			legacyTrain(want, X, y)
			assertSameFit(t, got, want)
		}
	}
}

// TestSVMTrainRejectsRaggedRows pins the width contract: the fused pass
// reads every row at the model's width, so a row of another width is
// refused instead of read past its end.
func TestSVMTrainRejectsRaggedRows(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Train accepted a row narrower than the first")
		}
	}()
	NewSVM(1).Train([]feature.Vector{{1, 2, 3}, {1, 2}}, []bool{true, false})
}

// TestDecisionValuesMatchDecisionValue scores row lists of every length
// from 0 to 9 and 37, with duplicated rows, rows narrower than the model
// and feature values of ±0, denormals and magnitudes whose products
// overflow, and requires DecisionValues to write exactly DecisionValue
// for each row (a NaN matches a NaN), value > DecisionThreshold to be
// Predict, to leave out past len(rows) untouched, and to write 0 for an
// untrained model.
func TestDecisionValuesMatchDecisionValue(t *testing.T) {
	special := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		1e-310, 1e308, -1e308, math.MaxFloat64, 1}
	for _, width := range []int{1, 5, 84} {
		r := rand.New(rand.NewSource(int64(width)))
		X, y := legacyData(160, width, int64(width))
		trained := NewSVM(int64(width))
		trained.Train(X, y)
		pool := make([]feature.Vector, 60)
		for i := range pool {
			w := width
			if i%13 == 12 && width > 1 {
				w = width - 1 // narrower than the model: DecisionValue sums its prefix
			}
			pool[i] = make(feature.Vector, w)
			for j := range pool[i] {
				if r.Intn(4) == 0 {
					pool[i][j] = special[r.Intn(len(special))]
				} else {
					pool[i][j] = r.Float64()
				}
			}
		}
		for _, m := range []*SVM{trained, NewSVM(1)} {
			for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 37} {
				rows := make([]int, n)
				for k := range rows {
					rows[k] = r.Intn(len(pool))
				}
				if n > 2 {
					rows[n-1] = rows[0] // a duplicated row
				}
				out := make([]float64, n+3)
				for k := range out {
					out[k] = -7
				}
				m.DecisionValues(pool, rows, out)
				for k, row := range rows {
					want := m.DecisionValue(pool[row])
					got := out[k]
					if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
						t.Fatalf("width=%d trained=%v n=%d: out[%d] (row %d) = %v, want %v",
							width, m.Dim() > 0, n, k, row, got, want)
					}
					if (got > m.DecisionThreshold()) != m.Predict(pool[row]) {
						t.Fatalf("width=%d: value %v > threshold disagrees with Predict", width, got)
					}
				}
				for k := n; k < len(out); k++ {
					if out[k] != -7 {
						t.Fatalf("width=%d n=%d: out[%d] past len(rows) overwritten", width, n, k)
					}
				}
			}
		}
	}
}
