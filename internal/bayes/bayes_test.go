package bayes

import (
	"math"
	"math/rand"
	"testing"

	"github.com/alem/alem/internal/feature"
)

func gaussianData(n int, seed int64) ([]feature.Vector, []bool) {
	r := rand.New(rand.NewSource(seed))
	X := make([]feature.Vector, 0, n)
	y := make([]bool, 0, n)
	for i := 0; i < n; i++ {
		pos := i%2 == 0
		mu := 0.2
		if pos {
			mu = 0.8
		}
		X = append(X, feature.Vector{mu + r.NormFloat64()*0.1, mu + r.NormFloat64()*0.1})
		y = append(y, pos)
	}
	return X, y
}

func TestNaiveBayesSeparable(t *testing.T) {
	X, y := gaussianData(400, 1)
	nb := New()
	nb.Train(X, y)
	ok := 0
	for i, x := range X {
		if nb.Predict(x) == y[i] {
			ok++
		}
	}
	if acc := float64(ok) / float64(len(X)); acc < 0.97 {
		t.Errorf("accuracy %.3f, want >= 0.97 on well-separated Gaussians", acc)
	}
}

func TestNaiveBayesUntrained(t *testing.T) {
	nb := New()
	if nb.Predict(feature.Vector{1, 2}) {
		t.Error("untrained NB should predict negative")
	}
	if nb.Margin(feature.Vector{1, 2}) != 0 {
		t.Error("untrained NB margin should be 0")
	}
	nb.Train(nil, nil)
	if nb.Predict(feature.Vector{1, 2}) {
		t.Error("NB trained on empty data should predict negative")
	}
}

func TestNaiveBayesMarginGeometry(t *testing.T) {
	X, y := gaussianData(400, 2)
	nb := New()
	nb.Train(X, y)
	mid := nb.Margin(feature.Vector{0.5, 0.5})
	pos := nb.Margin(feature.Vector{0.8, 0.8})
	neg := nb.Margin(feature.Vector{0.2, 0.2})
	if mid >= pos || mid >= neg {
		t.Errorf("margin(mid)=%.3f not below margin(pos)=%.3f / margin(neg)=%.3f", mid, pos, neg)
	}
}

func TestNaiveBayesSingleClass(t *testing.T) {
	X := []feature.Vector{{0.5}, {0.6}, {0.4}}
	y := []bool{true, true, true}
	nb := New()
	nb.Train(X, y)
	if !nb.Predict(feature.Vector{0.5}) {
		t.Error("all-positive training should predict positive near the data")
	}
	if m := nb.Margin(feature.Vector{0.5}); math.IsNaN(m) {
		t.Error("single-class margin is NaN")
	}
}

func TestNaiveBayesConstantFeature(t *testing.T) {
	// Zero-variance feature must not produce infinite densities.
	X := []feature.Vector{{1, 0.2}, {1, 0.8}, {1, 0.1}, {1, 0.9}}
	y := []bool{false, true, false, true}
	nb := New()
	nb.Train(X, y)
	for _, x := range X {
		if m := nb.Margin(x); math.IsNaN(m) || math.IsInf(m, 0) {
			t.Fatalf("margin(%v) = %v", x, m)
		}
	}
	if !nb.Predict(feature.Vector{1, 0.85}) {
		t.Error("high second feature should predict positive")
	}
}

func TestNaiveBayesPriorEffect(t *testing.T) {
	// Heavily skewed classes: prior should pull ambiguous points to the
	// majority class.
	var X []feature.Vector
	var y []bool
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 900; i++ {
		X = append(X, feature.Vector{0.5 + r.NormFloat64()*0.3})
		y = append(y, false)
	}
	for i := 0; i < 100; i++ {
		X = append(X, feature.Vector{0.5 + r.NormFloat64()*0.3})
		y = append(y, true)
	}
	nb := New()
	nb.Train(X, y)
	if nb.Predict(feature.Vector{0.5}) {
		t.Error("ambiguous point should go to the 9:1 majority class")
	}
}

// legacyPredict and legacyMargin are frozen copies of Predict and Margin
// before the decision value: the two log-likelihoods compared, and the
// magnitude of their difference.
func legacyPredict(nb *NaiveBayes, x feature.Vector) bool {
	if !nb.trained {
		return false
	}
	return nb.logLikelihood(x, 1) > nb.logLikelihood(x, 0)
}

func legacyMargin(nb *NaiveBayes, x feature.Vector) float64 {
	if !nb.trained {
		return 0
	}
	return math.Abs(nb.logLikelihood(x, 1) - nb.logLikelihood(x, 0))
}

// TestNaiveBayesDecisionValuesMatchPredict pins DecisionValues over row
// lists of length 0–9 and 65 with a duplicated row: value >
// DecisionThreshold must be Predict and the frozen comparison of the two
// log-likelihoods, |value| must be Margin and the frozen margin bit for
// bit, and out past len(rows) must stay untouched. It covers an
// untrained model, one trained on a single class (a prior of −Inf) and
// features whose squared distance overflows a log-likelihood to −Inf or
// NaN.
func TestNaiveBayesDecisionValuesMatchPredict(t *testing.T) {
	X, y := gaussianData(100, 4)
	pool := append([]feature.Vector(nil), X[:40]...)
	for _, v := range []float64{1e200, -1e200, math.Inf(1), math.Inf(-1), math.NaN()} {
		pool = append(pool, feature.Vector{v, 0.5}, feature.Vector{0.8, v}, feature.Vector{v, v})
	}
	trained, oneClass := New(), New()
	trained.Train(X, y)
	oneClass.Train(X[:1], y[:1])
	r := rand.New(rand.NewSource(5))
	nonFinite := 0
	for name, nb := range map[string]*NaiveBayes{"trained": trained, "one-class": oneClass, "untrained": New()} {
		for _, size := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 65} {
			rows := make([]int, size)
			for k := range rows {
				rows[k] = r.Intn(len(pool))
			}
			if size > 2 {
				rows[size-1] = rows[0]
			}
			out := make([]float64, size+3)
			for k := range out {
				out[k] = -7
			}
			nb.DecisionValues(pool, rows, out)
			for k, row := range rows {
				x := pool[row]
				v := out[k]
				if got := v > nb.DecisionThreshold(); got != nb.Predict(x) || got != legacyPredict(nb, x) {
					t.Fatalf("%s: row %d value %v > threshold is %v, Predict %v, frozen %v", name, row, v, got, nb.Predict(x), legacyPredict(nb, x))
				}
				abs := math.Float64bits(math.Abs(v))
				if abs != math.Float64bits(nb.Margin(x)) || abs != math.Float64bits(legacyMargin(nb, x)) {
					t.Fatalf("%s: row %d |value| %v, Margin %v, frozen %v", name, row, math.Abs(v), nb.Margin(x), legacyMargin(nb, x))
				}
				if math.IsNaN(v) || math.IsInf(v, 0) {
					nonFinite++
				}
			}
			for k := size; k < len(out); k++ {
				if out[k] != -7 {
					t.Fatalf("%s n=%d: out[%d] past len(rows) overwritten", name, size, k)
				}
			}
		}
	}
	if nonFinite == 0 {
		t.Fatal("no value was non-finite; the overflow rows go untested")
	}
}
