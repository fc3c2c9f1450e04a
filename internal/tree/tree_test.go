package tree

import (
	"math"
	"math/rand"
	"testing"

	"github.com/alem/alem/internal/feature"
)

func xorData(n int, seed int64) ([]feature.Vector, []bool) {
	r := rand.New(rand.NewSource(seed))
	X := make([]feature.Vector, 0, n)
	y := make([]bool, 0, n)
	for i := 0; i < n; i++ {
		a, b := r.Intn(2), r.Intn(2)
		X = append(X, feature.Vector{float64(a) + r.Float64()*0.1, float64(b) + r.Float64()*0.1})
		y = append(y, a != b)
	}
	return X, y
}

func forestAccuracy(f *Forest, X []feature.Vector, y []bool) float64 {
	ok := 0
	for i, x := range X {
		if f.Predict(x) == y[i] {
			ok++
		}
	}
	return float64(ok) / float64(len(X))
}

func TestForestLearnsXOR(t *testing.T) {
	X, y := xorData(300, 1)
	f := NewForest(10, 1)
	f.Train(X, y)
	if acc := forestAccuracy(f, X, y); acc < 0.97 {
		t.Errorf("XOR accuracy %.3f, want >= 0.97", acc)
	}
}

func TestForestVotes(t *testing.T) {
	X, y := xorData(200, 2)
	f := NewForest(20, 2)
	f.Train(X, y)
	pos, total := f.Votes(feature.Vector{0.0, 1.0})
	if total != 20 {
		t.Fatalf("total votes = %d, want 20", total)
	}
	if pos < 15 {
		t.Errorf("clear positive got only %d/20 votes", pos)
	}
	pos, _ = f.Votes(feature.Vector{0.0, 0.0})
	if pos > 5 {
		t.Errorf("clear negative got %d/20 positive votes", pos)
	}
}

func TestForestPredictMatchesMajorityVote(t *testing.T) {
	X, y := xorData(150, 3)
	f := NewForest(11, 3)
	f.Train(X, y)
	for _, x := range X[:40] {
		pos, total := f.Votes(x)
		if got, want := f.Predict(x), 2*pos > total; got != want {
			t.Fatalf("Predict = %v but votes %d/%d", got, pos, total)
		}
	}
}

func TestForestUntrainedAndEmpty(t *testing.T) {
	f := NewForest(5, 1)
	if f.Predict(feature.Vector{1}) {
		t.Error("untrained forest should predict negative")
	}
	f.Train(nil, nil)
	if len(f.Trees()) != 0 {
		t.Error("training on empty data should leave no trees")
	}
	if f.Depth() != 0 {
		t.Error("empty forest depth should be 0")
	}
}

func TestForestPureClassShortCircuit(t *testing.T) {
	X := []feature.Vector{{0.1}, {0.2}, {0.3}}
	y := []bool{true, true, true}
	f := NewForest(3, 4)
	f.Train(X, y)
	if !f.Predict(feature.Vector{0.15}) {
		t.Error("pure positive training set should predict positive")
	}
	if f.Depth() != 1 {
		t.Errorf("pure class should grow leaf-only trees, depth = %d", f.Depth())
	}
}

func TestForestDeterministicGivenSeed(t *testing.T) {
	X, y := xorData(100, 5)
	a, b := NewForest(7, 9), NewForest(7, 9)
	a.Train(X, y)
	b.Train(X, y)
	for i := 0; i < 50; i++ {
		x := feature.Vector{float64(i%2) + 0.05, float64((i/2)%2) + 0.05}
		if a.Predict(x) != b.Predict(x) {
			t.Fatal("same-seed forests disagree")
		}
	}
}

func TestTreeDepthGrowsWithComplexity(t *testing.T) {
	// Deeper structure needed for XOR than for a pure class.
	X, y := xorData(200, 6)
	f := NewForest(5, 6)
	f.Train(X, y)
	if f.Depth() < 2 {
		t.Errorf("XOR forest depth = %d, want >= 2", f.Depth())
	}
}

func TestSingleTreePredictPaths(t *testing.T) {
	// Hand-built stump: feature 0 <= 0.5 -> false else true.
	tr := &Tree{Root: &Node{
		Feature: 0, Threshold: 0.5,
		Left:  &Node{Leaf: true, Label: false},
		Right: &Node{Leaf: true, Label: true},
	}}
	if tr.Predict(feature.Vector{0.4}) {
		t.Error("0.4 should route left to false")
	}
	if !tr.Predict(feature.Vector{0.6}) {
		t.Error("0.6 should route right to true")
	}
	if tr.Depth() != 2 {
		t.Errorf("stump depth = %d, want 2", tr.Depth())
	}
}

func TestSortFloats(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := r.Intn(100)
		v := make([]float64, n)
		for i := range v {
			v[i] = r.Float64()
		}
		sortFloats(v)
		for i := 1; i < len(v); i++ {
			if v[i-1] > v[i] {
				t.Fatalf("unsorted at %d: %v > %v", i, v[i-1], v[i])
			}
		}
	}
}

func TestForestHandlesDuplicateRows(t *testing.T) {
	// All identical vectors with conflicting labels must not loop forever.
	X := []feature.Vector{{0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}}
	y := []bool{true, false, true, false}
	f := NewForest(3, 8)
	f.Train(X, y)
	_ = f.Predict(feature.Vector{0.5, 0.5}) // any label is acceptable
}

func TestForestTreesAreDiverse(t *testing.T) {
	// Bootstrap + random feature subsets must yield non-identical trees;
	// otherwise QBC variance would always be zero.
	X, y := xorData(300, 9)
	f := NewForest(10, 9)
	f.Train(X, y)
	r := rand.New(rand.NewSource(10))
	diverse := false
	for probe := 0; probe < 200 && !diverse; probe++ {
		x := feature.Vector{r.Float64() * 1.1, r.Float64() * 1.1}
		pos, total := f.Votes(x)
		if pos != 0 && pos != total {
			diverse = true
		}
	}
	if !diverse {
		t.Error("all trees agree on every probe; committee carries no disagreement signal")
	}
}

func TestForestSplitsUseGainThreshold(t *testing.T) {
	// Pure-noise labels: trees may still grow (bootstrap makes noise look
	// structured) but training must terminate and predict deterministically.
	r := rand.New(rand.NewSource(11))
	var X []feature.Vector
	var y []bool
	for i := 0; i < 100; i++ {
		X = append(X, feature.Vector{r.Float64()})
		y = append(y, r.Intn(2) == 0)
	}
	f := NewForest(5, 11)
	f.Train(X, y)
	a := f.Predict(feature.Vector{0.5})
	if b := f.Predict(feature.Vector{0.5}); a != b {
		t.Error("prediction not deterministic")
	}
}

func TestForestVoteThreshold(t *testing.T) {
	X, y := xorData(200, 12)
	f := NewForest(20, 12)
	f.Train(X, y)
	// Find a probe with a split vote.
	r := rand.New(rand.NewSource(13))
	var probe feature.Vector
	var frac float64
	for i := 0; i < 500; i++ {
		x := feature.Vector{r.Float64() * 1.1, r.Float64() * 1.1}
		pos, total := f.Votes(x)
		p := float64(pos) / float64(total)
		if p > 0.2 && p < 0.5 {
			probe, frac = x, p
			break
		}
	}
	if probe == nil {
		t.Skip("no split-vote probe found")
	}
	if f.Predict(probe) {
		t.Fatalf("majority predict true at vote fraction %.2f", frac)
	}
	low := NewForest(20, 12)
	low.VoteThreshold = 0.15
	low.Train(X, y)
	// Retrained with the same seed: same trees, lower bar.
	if !low.Predict(probe) {
		t.Errorf("threshold 0.15 should flip a %.2f-fraction vote to positive", frac)
	}
	if c := low.Clone(1); c.VoteThreshold != 0.15 {
		t.Error("Clone lost VoteThreshold")
	}
}

// TestForestDecisionValuesMatchVotes requires DecisionValues to write,
// bit for bit, the vote fraction float64(pos)/float64(total) that
// Predict and learner-aware QBC compute from Votes, for row lists of
// length 0–9 and 65 with a duplicated row, and to leave out past
// len(rows) untouched; DecisionThreshold must be 0.5, 0.3 and 0.75 at
// VoteThreshold 0, 0.3 and 0.75, and value > DecisionThreshold must be
// Predict; an untrained forest writes 0.
func TestForestDecisionValuesMatchVotes(t *testing.T) {
	X, y := xorData(200, 14)
	for i := 0; i < len(y); i += 7 {
		y[i] = !y[i] // label noise, so probes between the corners split the vote
	}
	r := rand.New(rand.NewSource(15))
	pool := append([]feature.Vector(nil), X[:40]...)
	for i := 0; i < 120; i++ {
		pool = append(pool, feature.Vector{r.Float64() * 1.1, r.Float64() * 1.1})
	}
	trained := NewForest(20, 14)
	trained.Train(X, y)
	var between, above bool // a fraction in (0.3, 0.5] and one in (0.5, 0.75]
	for _, x := range pool {
		pos, total := trained.Votes(x)
		p := float64(pos) / float64(total)
		between = between || (p > 0.3 && p <= 0.5)
		above = above || (p > 0.5 && p <= 0.75)
	}
	if !between || !above {
		t.Fatal("no probe splits the vote; the thresholds would not be told apart")
	}
	for _, f := range []*Forest{trained, NewForest(20, 1)} {
		for _, th := range []float64{0, 0.3, 0.75} {
			f.VoteThreshold = th
			if want := map[float64]float64{0: 0.5, 0.3: 0.3, 0.75: 0.75}[th]; f.DecisionThreshold() != want {
				t.Fatalf("VoteThreshold %v: DecisionThreshold %v, want %v", th, f.DecisionThreshold(), want)
			}
			for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 65} {
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
				f.DecisionValues(pool, rows, out)
				for k, row := range rows {
					x := pool[row]
					pos, total := f.Votes(x)
					want := 0.0
					if total > 0 {
						want = float64(pos) / float64(total)
					}
					if math.Float64bits(out[k]) != math.Float64bits(want) {
						t.Fatalf("trained=%v th=%v n=%d: out[%d] (row %d) = %v, want %v (%d/%d)",
							total > 0, th, n, k, row, out[k], want, pos, total)
					}
					if got := out[k] > f.DecisionThreshold(); got != f.Predict(x) {
						t.Fatalf("trained=%v th=%v: value %v > threshold %v is %v, Predict %v",
							total > 0, th, out[k], f.DecisionThreshold(), got, f.Predict(x))
					}
				}
				for k := n; k < len(out); k++ {
					if out[k] != -7 {
						t.Fatalf("th=%v n=%d: out[%d] past len(rows) overwritten", th, n, k)
					}
				}
			}
		}
	}
}
