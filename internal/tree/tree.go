// Package tree implements the benchmark's tree-based learner (§4.1.1):
// CART-style random decision trees of unlimited depth that consider a
// random subset of log2(Dim+1) features at each split, assembled into a
// random forest — the Corleone settings the paper adopts. The forest's
// trees double as a learner-aware QBC committee: Votes exposes the
// per-tree label counts the variance selector needs.
package tree

import (
	"math"
	"math/rand"

	"github.com/alem/alem/internal/feature"
)

// Node is one decision-tree node. Exported so the interp package can walk
// trees to produce DNF formulae and depth statistics (§6.3).
type Node struct {
	// Leaf nodes predict Label; internal nodes route on Feature <= Threshold
	// to Left, else Right.
	Leaf      bool
	Label     bool
	Feature   int
	Threshold float64
	Left      *Node
	Right     *Node
}

// Tree is a single CART decision tree.
type Tree struct {
	Root *Node
}

// Predict classifies one vector.
func (t *Tree) Predict(x feature.Vector) bool {
	n := t.Root
	for !n.Leaf {
		if x[n.Feature] <= n.Threshold {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Label
}

// Depth returns the maximum root-to-leaf depth (a single leaf is depth 1).
func (t *Tree) Depth() int { return depth(t.Root) }

func depth(n *Node) int {
	if n == nil {
		return 0
	}
	if n.Leaf {
		return 1
	}
	return 1 + max(depth(n.Left), depth(n.Right))
}

// growConfig carries the hyper-parameters down the recursive build,
// plus the split search's scratch: vals and posVals hold one node's
// values of one feature (all rows, positive rows), sized for the root.
// A node is done with them before it recurses, so one pair serves the
// whole tree.
type growConfig struct {
	maxFeatures   int
	rand          *rand.Rand
	X             []feature.Vector
	y             []bool
	vals, posVals []float64
}

// grow builds a tree on the row subset idx. Depth is unlimited; recursion
// stops only on pure nodes or when no split improves Gini impurity.
//
// The candidate thresholds of a feature are the midpoints between its
// distinct sorted values, and a threshold's left side is every row at or
// below it. Rather than recount the node per threshold, one sweep walks
// the thresholds in ascending order with two cursors: one over the
// node's sorted values, one over its positive rows' sorted values. The
// cursor counts are exact because the thresholds never decrease: the
// sum and the halving round monotonically, so a later pair of larger
// values cannot round to a smaller midpoint, even where the midpoint of
// two adjacent floats rounds up to the larger one. Values must not be
// NaN. (The one NaN midpoint, −Inf beside +Inf, arises only when those
// are the node's only values; no cursor moves and, as in a rescan, the
// empty left side skips it.)
func grow(cfg *growConfig, idx []int) *Node {
	pos := 0
	for _, i := range idx {
		if cfg.y[i] {
			pos++
		}
	}
	n := len(idx)
	if pos == 0 || pos == n {
		return &Node{Leaf: true, Label: pos > 0}
	}

	dim := len(cfg.X[0])
	bestGain := 0.0
	bestFeat, bestThresh, bestLeft := -1, 0.0, 0
	parentImp := gini(pos, n)

	// Random feature subset of size log2(Dim+1), per Corleone.
	feats := cfg.rand.Perm(dim)[:cfg.maxFeatures]
	vals, posVals := cfg.vals[:n], cfg.posVals[:pos]
	for _, f := range feats {
		p := 0
		for j, i := range idx {
			v := cfg.X[i][f]
			vals[j] = v
			if cfg.y[i] {
				posVals[p] = v
				p++
			}
		}
		sortFloats(vals)
		sortFloats(posVals)
		l, lp := 0, 0 // rows, positive rows at or below th
		prev := vals[0]
		for _, v := range vals[1:] {
			if v == prev {
				continue
			}
			th := (prev + v) / 2
			prev = v
			for l < n && vals[l] <= th {
				l++
			}
			for lp < pos && posVals[lp] <= th {
				lp++
			}
			r, rp := n-l, pos-lp
			if l == 0 || r == 0 {
				continue
			}
			w := float64(l) / float64(n)
			childImp := w*gini(lp, l) + (1-w)*gini(rp, r)
			if gain := parentImp - childImp; gain > bestGain+1e-12 {
				bestGain, bestFeat, bestThresh, bestLeft = gain, f, th, l
			}
		}
	}
	if bestFeat < 0 {
		return &Node{Leaf: true, Label: 2*pos >= n}
	}
	li, ri := make([]int, 0, bestLeft), make([]int, 0, n-bestLeft)
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
		Left:      grow(cfg, li),
		Right:     grow(cfg, ri),
	}
}

func gini(pos, n int) float64 {
	p := float64(pos) / float64(n)
	return 2 * p * (1 - p)
}

// sortFloats is an insertion/quick hybrid avoiding the sort package's
// interface overhead in the hot split loop.
func sortFloats(v []float64) {
	if len(v) < 24 {
		for i := 1; i < len(v); i++ {
			x := v[i]
			j := i - 1
			for j >= 0 && v[j] > x {
				v[j+1] = v[j]
				j--
			}
			v[j+1] = x
		}
		return
	}
	pivot := v[len(v)/2]
	lo, hi := 0, len(v)-1
	for lo <= hi {
		for v[lo] < pivot {
			lo++
		}
		for v[hi] > pivot {
			hi--
		}
		if lo <= hi {
			v[lo], v[hi] = v[hi], v[lo]
			lo++
			hi--
		}
	}
	sortFloats(v[:hi+1])
	sortFloats(v[lo:])
}

// Forest is a random forest of CART trees. Construct with NewForest.
type Forest struct {
	// NumTrees is the committee size (Corleone uses 10; the paper
	// parameterizes it as Trees(2/10/20)).
	NumTrees int
	// VoteThreshold is the fraction of positive votes required to
	// predict a match; 0 means majority (0.5). Lowering it trades
	// precision for recall under EM class skew.
	VoteThreshold float64

	trees []*Tree
	rand  *rand.Rand
}

// NewForest returns a forest with the given committee size.
func NewForest(numTrees int, seed int64) *Forest {
	if numTrees <= 0 {
		numTrees = 10
	}
	return &Forest{NumTrees: numTrees, rand: rand.New(rand.NewSource(seed))}
}

// Name implements the learner interface.
func (f *Forest) Name() string { return "random-forest" }

// Train grows NumTrees trees on bootstrap resamples of the labeled data,
// each split drawing log2(Dim+1) random features. Feature values must not
// be NaN: the split search sweeps each feature's sorted values, and NaN
// has no place in that order, so the split counts past it would be wrong.
func (f *Forest) Train(X []feature.Vector, y []bool) {
	f.trees = nil
	if len(X) == 0 {
		return
	}
	dim := len(X[0])
	maxFeatures := int(math.Log2(float64(dim) + 1))
	if maxFeatures < 1 {
		maxFeatures = 1
	}
	if maxFeatures > dim {
		maxFeatures = dim
	}
	cfg := &growConfig{maxFeatures: maxFeatures, rand: f.rand, X: X, y: y,
		vals: make([]float64, len(X)), posVals: make([]float64, len(X))}
	for t := 0; t < f.NumTrees; t++ {
		idx := make([]int, len(X))
		for i := range idx {
			idx[i] = f.rand.Intn(len(X))
		}
		f.trees = append(f.trees, &Tree{Root: grow(cfg, idx)})
	}
}

// Predict labels x as matching when the positive vote fraction exceeds
// DecisionThreshold (majority by default).
func (f *Forest) Predict(x feature.Vector) bool { return f.value(x) > f.DecisionThreshold() }

// value is the positive vote fraction of x, or 0 untrained.
func (f *Forest) value(x feature.Vector) float64 {
	pos, total := f.Votes(x)
	if total == 0 {
		return 0
	}
	return float64(pos) / float64(total)
}

// DecisionThreshold returns the positive vote fraction a row must exceed
// to be predicted a match: VoteThreshold, or 0.5 (majority) when that is
// not positive.
func (f *Forest) DecisionThreshold() float64 {
	if f.VoteThreshold <= 0 {
		return 0.5
	}
	return f.VoteThreshold
}

// DecisionValues writes the positive vote fraction of X[rows[k]] into
// out[k]: float64(pos)/float64(total) from Votes, the value Predict
// compares with DecisionThreshold and learner-aware QBC turns into its
// variance, bit for bit. An untrained forest writes 0. out must have
// room for len(rows) values.
func (f *Forest) DecisionValues(X []feature.Vector, rows []int, out []float64) {
	for k, row := range rows {
		out[k] = f.value(X[row])
	}
}

// Votes returns how many trees label x as matching, out of how many. The
// learner-aware QBC selector computes its variance Pi/C·(1−Pi/C) from
// these counts (§4.1.1) — the forest's own trees are the committee, no
// bootstrap committee construction needed.
func (f *Forest) Votes(x feature.Vector) (pos, total int) {
	for _, t := range f.trees {
		if t.Predict(x) {
			pos++
		}
	}
	return pos, len(f.trees)
}

// Trees exposes the grown trees for interpretability analysis (§6.3).
func (f *Forest) Trees() []*Tree { return f.trees }

// Depth returns the maximum depth across the ensemble (Fig. 18b).
func (f *Forest) Depth() int {
	d := 0
	for _, t := range f.trees {
		d = max(d, t.Depth())
	}
	return d
}

// MinDim returns a lower bound on the feature dimensionality the forest
// was trained on: one past the largest feature index any split routes
// on. Trees do not record the full training width (a feature may simply
// never be split on), so deployment-time validation can only require the
// extractor to be at least this wide.
func (f *Forest) MinDim() int {
	d := 0
	for _, t := range f.trees {
		d = max(d, minDim(t.Root))
	}
	return d
}

func minDim(n *Node) int {
	if n == nil || n.Leaf {
		return 0
	}
	return max(n.Feature+1, minDim(n.Left), minDim(n.Right))
}

// Clone returns an untrained forest with the same size, threshold and a
// fresh RNG.
func (f *Forest) Clone(seed int64) *Forest {
	c := NewForest(f.NumTrees, seed)
	c.VoteThreshold = f.VoteThreshold
	return c
}
