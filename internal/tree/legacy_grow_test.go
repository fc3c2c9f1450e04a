package tree

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/alem/alem/internal/feature"
)

// legacyGrow is the rescan split search grow replaced, frozen verbatim:
// every candidate threshold recounts every row of the node. It is the
// reference TestGrowMatchesLegacy holds the sorted sweep to. Do not
// "clean it up" to call grow: sharing would make the test tautological.
func legacyGrow(cfg *growConfig, idx []int) *Node {
	pos := 0
	for _, i := range idx {
		if cfg.y[i] {
			pos++
		}
	}
	if pos == 0 || pos == len(idx) {
		return &Node{Leaf: true, Label: pos > 0}
	}

	dim := len(cfg.X[0])
	bestGain := 0.0
	bestFeat, bestThresh := -1, 0.0
	parentImp := gini(pos, len(idx))

	// Random feature subset of size log2(Dim+1), per Corleone.
	feats := cfg.rand.Perm(dim)[:cfg.maxFeatures]
	for _, f := range feats {
		// Candidate thresholds: midpoints between distinct sorted values.
		vals := make([]float64, 0, len(idx))
		for _, i := range idx {
			vals = append(vals, cfg.X[i][f])
		}
		sortFloats(vals)
		prev := vals[0]
		for _, v := range vals[1:] {
			if v == prev {
				continue
			}
			th := (prev + v) / 2
			prev = v
			lp, ln, rp, rn := 0, 0, 0, 0
			for _, i := range idx {
				if cfg.X[i][f] <= th {
					if cfg.y[i] {
						lp++
					} else {
						ln++
					}
				} else {
					if cfg.y[i] {
						rp++
					} else {
						rn++
					}
				}
			}
			l, r := lp+ln, rp+rn
			if l == 0 || r == 0 {
				continue
			}
			w := float64(l) / float64(len(idx))
			childImp := w*gini(lp, l) + (1-w)*gini(rp, r)
			if gain := parentImp - childImp; gain > bestGain+1e-12 {
				bestGain, bestFeat, bestThresh = gain, f, th
			}
		}
	}
	if bestFeat < 0 {
		return &Node{Leaf: true, Label: 2*pos >= len(idx)}
	}
	var li, ri []int
	for _, i := range idx {
		if cfg.X[i][bestFeat] <= bestThresh {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	return &Node{
		Feature:   bestFeat,
		Threshold: bestThresh,
		Left:      legacyGrow(cfg, li),
		Right:     legacyGrow(cfg, ri),
	}
}

// countingSource counts every draw so two builds can be compared by RNG
// position, not just by output.
type countingSource struct {
	src rand.Source64
	n   uint64
}

func (c *countingSource) Int63() int64   { c.n++; return c.src.Int63() }
func (c *countingSource) Uint64() uint64 { c.n++; return c.src.Uint64() }
func (c *countingSource) Seed(s int64)   { c.src.Seed(s) }

func newCountingSource(seed int64) *countingSource {
	return &countingSource{src: rand.NewSource(seed).(rand.Source64)}
}

// columnKinds generate one feature column each, covering what the split
// sweep's exactness argument has to survive: continuous values, heavy
// ties, runs of adjacent floats (whose midpoints round onto one of the
// pair), signed zeros and denormals, 0/1 atoms, infinities and
// magnitudes whose midpoint sums overflow.
var columnKinds = []struct {
	name string
	gen  func(r *rand.Rand, n int) []float64
}{
	{"continuous", func(r *rand.Rand, n int) []float64 {
		return fill(n, func(int) float64 { return r.Float64() })
	}},
	{"ties", func(r *rand.Rand, n int) []float64 {
		return fill(n, func(int) float64 { return float64(r.Intn(4)) / 3 })
	}},
	{"adjacent", func(r *rand.Rand, n int) []float64 {
		base := r.Float64()
		run := []float64{base}
		for len(run) < 5 {
			run = append(run, math.Nextafter(run[len(run)-1], 2))
		}
		return fill(n, func(int) float64 { return run[r.Intn(len(run))] })
	}},
	{"zeros-denormals", func(r *rand.Rand, n int) []float64 {
		tiny := math.SmallestNonzeroFloat64
		set := []float64{0, math.Copysign(0, -1), tiny, -tiny, 2 * tiny, 3 * tiny, 1e-310, -1e-310}
		return fill(n, func(int) float64 { return set[r.Intn(len(set))] })
	}},
	{"binary", func(r *rand.Rand, n int) []float64 {
		return fill(n, func(int) float64 { return float64(r.Intn(2)) })
	}},
	{"extremes", func(r *rand.Rand, n int) []float64 {
		set := []float64{math.Inf(-1), math.Inf(1), -math.MaxFloat64, math.MaxFloat64, 1e308, -1e308, 0.5}
		return fill(n, func(int) float64 { return set[r.Intn(len(set))] })
	}},
}

func fill(n int, gen func(int) float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = gen(i)
	}
	return out
}

// randomGrowInput builds n rows over dim columns of randomly chosen
// kinds, noisy labels, and a row subset that is either a bootstrap
// resample (duplicates), a plain subset, or a single-class subset.
func randomGrowInput(r *rand.Rand, n, dim int) ([]feature.Vector, []bool, []int) {
	cols := make([][]float64, dim)
	for f := range cols {
		cols[f] = columnKinds[r.Intn(len(columnKinds))].gen(r, n)
	}
	X := make([]feature.Vector, n)
	for i := range X {
		X[i] = make(feature.Vector, dim)
		for f := range cols {
			X[i][f] = cols[f][i]
		}
	}
	y := make([]bool, n)
	posRate := r.Float64()
	for i := range y {
		y[i] = r.Float64() < posRate
	}
	var idx []int
	switch r.Intn(3) {
	case 0: // bootstrap, as Forest.Train draws it
		idx = make([]int, n)
		for i := range idx {
			idx[i] = r.Intn(n)
		}
	case 1:
		idx = r.Perm(n)[:1+r.Intn(n)]
	default:
		want := r.Intn(2) == 0
		for i := range y {
			if y[i] == want {
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			idx = []int{0}
		}
	}
	return X, y, idx
}

func sameTree(t *testing.T, path string, got, want *Node) {
	t.Helper()
	if got.Leaf != want.Leaf || got.Label != want.Label || got.Feature != want.Feature ||
		math.Float64bits(got.Threshold) != math.Float64bits(want.Threshold) {
		t.Fatalf("node %s: got {leaf %v label %v feat %d th %v (%#x)}, legacy {leaf %v label %v feat %d th %v (%#x)}",
			path, got.Leaf, got.Label, got.Feature, got.Threshold, math.Float64bits(got.Threshold),
			want.Leaf, want.Label, want.Feature, want.Threshold, math.Float64bits(want.Threshold))
	}
	if want.Leaf {
		return
	}
	sameTree(t, path+"L", got.Left, want.Left)
	sameTree(t, path+"R", got.Right, want.Right)
}

// TestGrowMatchesLegacy pins the sorted-sweep split search to the frozen
// rescan: on randomized inputs of every column kind, both builds must
// produce the same tree node for node (leaf flag, label, feature and
// threshold bits) and leave the RNG at the same draw position. The sizes
// 23-25 straddle sortFloats' insertion-sort cutoff.
func TestGrowMatchesLegacy(t *testing.T) {
	for _, n := range []int{2, 23, 24, 25, 160, 500, 1000} {
		trials := max(4, 6000/n)
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(n)))
			for trial := 0; trial < trials; trial++ {
				dim := 1 + r.Intn(12)
				X, y, idx := randomGrowInput(r, n, dim)
				maxFeatures := 1 + r.Intn(dim)
				seed := r.Int63()

				wantSrc := newCountingSource(seed)
				want := legacyGrow(&growConfig{maxFeatures: maxFeatures, rand: rand.New(wantSrc), X: X, y: y},
					append([]int(nil), idx...))
				gotSrc := newCountingSource(seed)
				got := grow(&growConfig{maxFeatures: maxFeatures, rand: rand.New(gotSrc), X: X, y: y,
					vals: make([]float64, len(idx)), posVals: make([]float64, len(idx))},
					append([]int(nil), idx...))

				sameTree(t, fmt.Sprintf("trial %d root", trial), got, want)
				if gotSrc.n != wantSrc.n {
					t.Fatalf("trial %d: %d RNG draws, legacy made %d", trial, gotSrc.n, wantSrc.n)
				}
			}
		})
	}
}
