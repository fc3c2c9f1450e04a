package neural

import (
	"math"
	"math/rand"
	"testing"

	"github.com/alem/alem/internal/feature"
)

// xorData builds the classic non-linearly-separable XOR problem, which a
// linear model cannot fit but one hidden layer can.
func xorData(n int, seed int64) ([]feature.Vector, []bool) {
	r := rand.New(rand.NewSource(seed))
	X := make([]feature.Vector, 0, n)
	y := make([]bool, 0, n)
	for i := 0; i < n; i++ {
		a, b := r.Intn(2), r.Intn(2)
		x := feature.Vector{
			float64(a) + r.Float64()*0.1 - 0.05,
			float64(b) + r.Float64()*0.1 - 0.05,
		}
		X = append(X, x)
		y = append(y, a != b)
	}
	return X, y
}

func netAccuracy(n *Net, X []feature.Vector, y []bool) float64 {
	ok := 0
	for i, x := range X {
		if n.Predict(x) == y[i] {
			ok++
		}
	}
	return float64(ok) / float64(len(X))
}

func TestNetLearnsXOR(t *testing.T) {
	X, y := xorData(400, 1)
	n := NewNet(16, 1)
	n.Epochs = 200 // XOR needs more than the EM default to converge
	n.LR = 0.05
	n.Dropout = 0.1
	n.Train(X, y)
	if acc := netAccuracy(n, X, y); acc < 0.95 {
		t.Errorf("XOR accuracy %.3f, want >= 0.95", acc)
	}
}

func TestNetLearnsLinear(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	var X []feature.Vector
	var y []bool
	for i := 0; i < 300; i++ {
		pos := i%2 == 0
		c := 0.15
		if pos {
			c = 0.85
		}
		X = append(X, feature.Vector{c + r.Float64()*0.1, c + r.Float64()*0.1})
		y = append(y, pos)
	}
	n := NewNet(8, 2)
	n.LR = 0.02
	n.Train(X, y)
	if acc := netAccuracy(n, X, y); acc < 0.97 {
		t.Errorf("linear-problem accuracy %.3f, want >= 0.97", acc)
	}
}

func TestNetMarginSigmoidConsistency(t *testing.T) {
	// §4.2.2: prob > 0.5 iff margin > 0; |margin| small iff prob near 0.5.
	X, y := xorData(200, 3)
	n := NewNet(8, 3)
	n.Train(X, y)
	for _, x := range X[:50] {
		m := n.Margin(x)
		p := n.Prob(x)
		if (m > 0) != (p > 0.5) {
			t.Fatalf("margin %v and prob %v disagree on the label", m, p)
		}
		if diff := math.Abs(p - sigmoid(m)); diff > 1e-12 {
			t.Fatalf("Prob != sigmoid(Margin): diff %v", diff)
		}
	}
}

func TestNetUntrained(t *testing.T) {
	n := NewNet(8, 1)
	if n.Predict(feature.Vector{1, 2}) {
		t.Error("untrained net should predict negative")
	}
	if n.Margin(feature.Vector{1, 2}) != 0 {
		t.Error("untrained net margin should be 0")
	}
	n.Train(nil, nil)
	if n.Predict(feature.Vector{1, 2}) {
		t.Error("net trained on empty set should predict negative")
	}
}

func TestNetDeterministicGivenSeed(t *testing.T) {
	X, y := xorData(100, 4)
	a, b := NewNet(8, 9), NewNet(8, 9)
	a.Train(X, y)
	b.Train(X, y)
	probe := feature.Vector{0.3, 0.7}
	if a.Margin(probe) != b.Margin(probe) {
		t.Error("same-seed training produced different networks")
	}
}

func TestNetPredictAll(t *testing.T) {
	X, y := xorData(60, 5)
	n := NewNet(8, 5)
	n.Train(X, y)
	all := n.PredictAll(X)
	for i, x := range X {
		if all[i] != n.Predict(x) {
			t.Fatalf("PredictAll[%d] != Predict", i)
		}
	}
}

func TestNetClone(t *testing.T) {
	n := NewNet(12, 1)
	n.Epochs = 5
	c := n.Clone(2)
	if c.Hidden != 12 || c.Epochs != 5 {
		t.Error("Clone lost hyper-parameters")
	}
	if c.trained {
		t.Error("Clone should be untrained")
	}
}

func TestNetHandlesConstantFeatures(t *testing.T) {
	// Batch-norm must not divide by zero on zero-variance activations.
	var X []feature.Vector
	var y []bool
	for i := 0; i < 64; i++ {
		X = append(X, feature.Vector{1.0, float64(i % 2)})
		y = append(y, i%2 == 0)
	}
	n := NewNet(8, 6)
	n.Train(X, y)
	m := n.Margin(feature.Vector{1.0, 0})
	if math.IsNaN(m) || math.IsInf(m, 0) {
		t.Fatalf("margin is %v on constant features", m)
	}
}

func TestNetTrainingReducesLoss(t *testing.T) {
	// L2 loss on the training set must drop substantially from init to
	// the end of training.
	X, y := xorData(300, 7)
	loss := func(n *Net) float64 {
		var l float64
		for i, x := range X {
			target := 0.0
			if y[i] {
				target = 1
			}
			d := n.Prob(x) - target
			l += d * d
		}
		return l / float64(len(X))
	}
	n := NewNet(16, 7)
	n.Epochs = 1
	n.LR = 0.05
	n.Dropout = 0.1
	n.Train(X, y)
	early := loss(n)
	n2 := NewNet(16, 7)
	n2.Epochs = 150
	n2.LR = 0.05
	n2.Dropout = 0.1
	n2.Train(X, y)
	late := loss(n2)
	if late >= early {
		t.Errorf("training loss did not decrease: 1 epoch %.4f vs 150 epochs %.4f", early, late)
	}
}

func TestNetHighDimensionalInput(t *testing.T) {
	// Typical EM dimensionality (189 dims for Cora) must train without
	// numerical issues.
	r := rand.New(rand.NewSource(8))
	var X []feature.Vector
	var y []bool
	for i := 0; i < 100; i++ {
		pos := i%2 == 0
		v := make(feature.Vector, 189)
		base := 0.2
		if pos {
			base = 0.8
		}
		for j := range v {
			v[j] = base + r.Float64()*0.2
		}
		X = append(X, v)
		y = append(y, pos)
	}
	n := NewNet(16, 8)
	n.Epochs = 10
	n.Train(X, y)
	ok := 0
	for i, x := range X {
		if m := n.Margin(x); math.IsNaN(m) || math.IsInf(m, 0) {
			t.Fatalf("margin NaN/Inf at %d", i)
		}
		if n.Predict(x) == y[i] {
			ok++
		}
	}
	if float64(ok)/float64(len(X)) < 0.9 {
		t.Errorf("189-dim accuracy %.2f, want >= 0.9", float64(ok)/float64(len(X)))
	}
}

// TestNetDecisionValuesMatchMargin is the forest's vote-fraction pin for
// the network: DecisionValues must write Margin bit for bit for row
// lists of length 0–9 and 65 with a duplicated row, leave out past
// len(rows) untouched, and value > DecisionThreshold must be Predict; an
// untrained network writes 0.
func TestNetDecisionValuesMatchMargin(t *testing.T) {
	X, y := xorData(200, 16)
	r := rand.New(rand.NewSource(17))
	pool := append([]feature.Vector(nil), X[:40]...)
	for i := 0; i < 60; i++ {
		pool = append(pool, feature.Vector{r.Float64()*1.2 - 0.1, r.Float64()*1.2 - 0.1})
	}
	trained := NewNet(16, 16)
	trained.Train(X, y)
	matches := 0
	for _, x := range pool {
		if trained.Predict(x) {
			matches++
		}
	}
	if matches == 0 || matches == len(pool) {
		t.Fatalf("trained net predicts %d of %d probes a match; the threshold would go untested", matches, len(pool))
	}
	for _, n := range []*Net{trained, NewNet(16, 1)} {
		for _, size := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 65} {
			rows := make([]int, size)
			for k := range rows {
				rows[k] = r.Intn(len(pool))
			}
			if size > 2 {
				rows[size-1] = rows[0] // a duplicated row
			}
			out := make([]float64, size+3)
			for k := range out {
				out[k] = -7
			}
			n.DecisionValues(pool, rows, out)
			for k, row := range rows {
				x := pool[row]
				if want := n.Margin(x); math.Float64bits(out[k]) != math.Float64bits(want) {
					t.Fatalf("trained=%v n=%d: out[%d] (row %d) = %v, want Margin %v",
						n.Dim() > 0, size, k, row, out[k], want)
				}
				if got := out[k] > n.DecisionThreshold(); got != n.Predict(x) {
					t.Fatalf("trained=%v: value %v > threshold is %v, Predict %v", n.Dim() > 0, out[k], got, n.Predict(x))
				}
			}
			for k := size; k < len(out); k++ {
				if out[k] != -7 {
					t.Fatalf("n=%d: out[%d] past len(rows) overwritten", size, k)
				}
			}
		}
	}
}
