// Package neural implements the benchmark's non-convex non-linear
// classifier (§4.2.2): a feed-forward network with one ReLU hidden layer,
// batch normalization, dropout 0.5, a single affine output whose value is
// the margin (Nguyen & Sanner's non-convex margin), and a sigmoid that
// turns the margin into a match probability. Training follows the paper's
// settings: L2 loss, SGD with momentum 0.95, learning rate 0.001 with
// decay 0.99 per epoch, 50 epochs, mini-batches of 8.
package neural

import (
	"math"
	"math/rand"

	"github.com/alem/alem/internal/feature"
)

// Net is the feed-forward classifier. Construct with NewNet.
type Net struct {
	Hidden    int     // hidden layer width
	Epochs    int     // training epochs
	BatchSize int     // mini-batch size
	LR        float64 // initial learning rate
	Decay     float64 // per-epoch learning-rate decay
	Momentum  float64 // SGD momentum
	Dropout   float64 // hidden-unit drop probability

	dim int
	// Parameters.
	w1 [][]float64 // [hidden][dim]
	b1 []float64
	// Batch-norm scale/shift and running statistics (inference mode).
	gamma, beta      []float64
	runMean, runVar  []float64
	w2               []float64 // [hidden]
	b2               float64
	rand             *rand.Rand
	trained          bool
	momentW1         [][]float64
	momentB1         []float64
	momentG, momentB []float64
	momentW2         []float64
	momentB2         float64
}

// NewNet returns a network with the paper's hyper-parameters and the
// given hidden width (the paper leaves h unspecified; 16 is the benchmark
// default). The seed controls weight init, shuffling and dropout.
func NewNet(hidden int, seed int64) *Net {
	if hidden <= 0 {
		hidden = 16
	}
	return &Net{
		Hidden: hidden, Epochs: 50, BatchSize: 8,
		LR: 0.001, Decay: 0.99, Momentum: 0.95, Dropout: 0.5,
		rand: rand.New(rand.NewSource(seed)),
	}
}

// Name implements the learner interface.
func (n *Net) Name() string { return "neural-net" }

func (n *Net) init(dim int) {
	n.dim = dim
	scale := math.Sqrt(2 / float64(dim)) // He init for ReLU
	n.w1 = matrix[float64](n.Hidden, dim)
	n.momentW1 = matrix[float64](n.Hidden, dim)
	for h := range n.w1 {
		for j := range n.w1[h] {
			n.w1[h][j] = n.rand.NormFloat64() * scale
		}
	}
	n.b1 = make([]float64, n.Hidden)
	n.momentB1 = make([]float64, n.Hidden)
	n.gamma = make([]float64, n.Hidden)
	n.beta = make([]float64, n.Hidden)
	n.momentG = make([]float64, n.Hidden)
	n.momentB = make([]float64, n.Hidden)
	n.runMean = make([]float64, n.Hidden)
	n.runVar = make([]float64, n.Hidden)
	for h := range n.gamma {
		n.gamma[h] = 1
		n.runVar[h] = 1
	}
	n.w2 = make([]float64, n.Hidden)
	n.momentW2 = make([]float64, n.Hidden)
	outScale := math.Sqrt(1 / float64(n.Hidden))
	for h := range n.w2 {
		n.w2[h] = n.rand.NormFloat64() * outScale
	}
	n.b2 = 0
	n.momentB2 = 0
}

const bnEps = 1e-5

// matrix returns a rows×cols matrix whose rows share one backing array.
func matrix[T any](rows, cols int) [][]T {
	back := make([]T, rows*cols)
	m := make([][]T, rows)
	for i := range m {
		m[i] = back[i*cols : (i+1)*cols : (i+1)*cols]
	}
	return m
}

// trainScratch holds every per-batch work buffer Train needs, allocated
// once per fit and reused across all mini-batches of all epochs. The
// original implementation re-made each of these inside the batch loop —
// roughly eighty allocations per batch, tens of thousands per fit.
// Reuse is exact because every slot is either written unconditionally
// on the forward/backward pass (z1, sd, xhat, bn, dBN, dRelu), written
// on both branches of its conditional (relu, drop, dXhat), written
// before it is read (act, actG), or zeroed below before its +=
// accumulation (mean, variance and the grad buffers) — matching the zero
// state a fresh make provided.
type trainScratch struct {
	z1    [][]float64 // pre-BN ReLU input
	relu  [][]float64 // post-ReLU (pre-BN)
	xhat  [][]float64 // normalized activations
	bn    [][]float64 // post-BN, post-dropout activations
	dBN   [][]float64 // gradient wrt bn activations
	dXhat [][]float64
	dRelu [][]float64
	drop  [][]bool

	mean, variance      []float64
	sd                  []float64 // per-unit batch standard deviation
	gradW2              []float64
	gradGamma, gradBeta []float64

	// One hidden unit's active rows (z1 > 0) in batch order, and their
	// dRelu: the terms of that unit's W1 and b1 gradients.
	act  []feature.Vector
	actG []float64
}

func newTrainScratch(batch, hidden int) *trainScratch {
	return &trainScratch{
		z1:    matrix[float64](batch, hidden),
		relu:  matrix[float64](batch, hidden),
		xhat:  matrix[float64](batch, hidden),
		bn:    matrix[float64](batch, hidden),
		dBN:   matrix[float64](batch, hidden),
		dXhat: matrix[float64](batch, hidden),
		dRelu: matrix[float64](batch, hidden),
		drop:  matrix[bool](batch, hidden),

		mean:      make([]float64, hidden),
		variance:  make([]float64, hidden),
		sd:        make([]float64, hidden),
		gradW2:    make([]float64, hidden),
		gradGamma: make([]float64, hidden),
		gradBeta:  make([]float64, hidden),

		act:  make([]feature.Vector, batch),
		actG: make([]float64, batch),
	}
}

// preact writes the hidden pre-activations b1[h] + Σ_j w1[h][j]·x[j] of
// x into out[h], for the first len(out) units of w1 and b1. Each unit
// keeps one accumulator summed in feature order, so every value is the
// one a unit-at-a-time loop produces; four units advance together so
// their add chains overlap instead of waiting on each other.
func preact(out []float64, w1 [][]float64, b1 []float64, x feature.Vector) {
	h := 0
	for ; h+4 <= len(out); h += 4 {
		r0, r1, r2, r3 := w1[h][:len(x)], w1[h+1][:len(x)], w1[h+2][:len(x)], w1[h+3][:len(x)]
		s0, s1, s2, s3 := b1[h], b1[h+1], b1[h+2], b1[h+3]
		for j, xj := range x {
			s0 += r0[j] * xj
			s1 += r1[j] * xj
			s2 += r2[j] * xj
			s3 += r3[j] * xj
		}
		out[h], out[h+1], out[h+2], out[h+3] = s0, s1, s2, s3
	}
	for ; h < len(out); h++ {
		r := w1[h][:len(x)]
		s := b1[h]
		for j, xj := range x {
			s += r[j] * xj
		}
		out[h] = s
	}
}

// Train fits the network from scratch on the labeled vectors. Every row
// of X must have the first row's width; pool feature vectors always do.
//
// Every sum keeps the order of terms of the plain per-unit, per-row
// loops (frozen in legacy_equiv_test.go), so the fit is bit-identical to
// them; only independent sums are interleaved.
func (n *Net) Train(X []feature.Vector, y []bool) {
	if len(X) == 0 {
		n.trained = false
		return
	}
	n.init(len(X[0]))
	n.trained = true
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	lr := n.LR
	const bnMomentum = 0.9
	maxBatch := min(n.BatchSize, len(X))
	sc := newTrainScratch(maxBatch, n.Hidden)
	for epoch := 0; epoch < n.Epochs; epoch++ {
		n.rand.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for start := 0; start < len(idx); start += n.BatchSize {
			end := min(start+n.BatchSize, len(idx))
			batch := idx[start:end]
			m := len(batch)

			// Forward. Only rows [0, m) of the scratch matrices are
			// touched; a short final batch simply leaves the rest idle.
			z1, relu := sc.z1, sc.relu
			for bi, i := range batch {
				preact(z1[bi], n.w1, n.b1, X[i])
				for h, s := range z1[bi] {
					if s > 0 {
						relu[bi][h] = s
					} else {
						relu[bi][h] = 0
					}
				}
			}
			// Batch norm over the mini-batch.
			mean, variance, sd := sc.mean, sc.variance, sc.sd
			for h := 0; h < n.Hidden; h++ {
				mean[h], variance[h] = 0, 0
				for bi := 0; bi < m; bi++ {
					mean[h] += relu[bi][h]
				}
				mean[h] /= float64(m)
				for bi := 0; bi < m; bi++ {
					d := relu[bi][h] - mean[h]
					variance[h] += d * d
				}
				variance[h] /= float64(m)
				sd[h] = math.Sqrt(variance[h] + bnEps)
				n.runMean[h] = bnMomentum*n.runMean[h] + (1-bnMomentum)*mean[h]
				n.runVar[h] = bnMomentum*n.runVar[h] + (1-bnMomentum)*variance[h]
			}
			xhat, bn, drop := sc.xhat, sc.bn, sc.drop
			for bi := 0; bi < m; bi++ {
				for h := 0; h < n.Hidden; h++ {
					xhat[bi][h] = (relu[bi][h] - mean[h]) / sd[h]
					v := n.gamma[h]*xhat[bi][h] + n.beta[h]
					// Inverted dropout.
					if n.rand.Float64() < n.Dropout {
						drop[bi][h] = true
						v = 0
					} else {
						drop[bi][h] = false
						v /= 1 - n.Dropout
					}
					bn[bi][h] = v
				}
			}
			// Output margin and sigmoid probability.
			dBN, gradW2 := sc.dBN, sc.gradW2
			for h := range gradW2 {
				gradW2[h] = 0
			}
			gradB2 := 0.0
			for bi, i := range batch {
				margin := n.b2
				for h := 0; h < n.Hidden; h++ {
					margin += n.w2[h] * bn[bi][h]
				}
				p := sigmoid(margin)
				target := 0.0
				if y[i] {
					target = 1
				}
				// L2 loss: dL/dmargin = 2(p-t) p (1-p).
				dMargin := 2 * (p - target) * p * (1 - p)
				for h := 0; h < n.Hidden; h++ {
					gradW2[h] += dMargin * bn[bi][h]
					dBN[bi][h] = dMargin * n.w2[h]
				}
				gradB2 += dMargin
			}
			// Backprop through dropout and batch norm.
			gradGamma, gradBeta := sc.gradGamma, sc.gradBeta
			for h := range gradGamma {
				gradGamma[h], gradBeta[h] = 0, 0
			}
			dXhat := sc.dXhat
			for bi := 0; bi < m; bi++ {
				for h := 0; h < n.Hidden; h++ {
					if drop[bi][h] {
						dXhat[bi][h] = 0
						continue
					}
					g := dBN[bi][h] / (1 - n.Dropout)
					gradGamma[h] += g * xhat[bi][h]
					gradBeta[h] += g
					dXhat[bi][h] = g * n.gamma[h]
				}
			}
			// Standard batch-norm backward pass to pre-BN activations.
			dRelu := sc.dRelu
			for h := 0; h < n.Hidden; h++ {
				invStd := 1 / sd[h]
				var sumDXhat, sumDXhatXhat float64
				for bi := 0; bi < m; bi++ {
					sumDXhat += dXhat[bi][h]
					sumDXhatXhat += dXhat[bi][h] * xhat[bi][h]
				}
				for bi := 0; bi < m; bi++ {
					dRelu[bi][h] = invStd / float64(m) *
						(float64(m)*dXhat[bi][h] - sumDXhat - xhat[bi][h]*sumDXhatXhat)
				}
			}
			// Through ReLU into the first-layer parameters, and the
			// momentum SGD updates (gradients averaged over the batch).
			// A W1 gradient reads only dRelu and X, never w1, so each
			// one is summed — from +0, over the unit's active rows in
			// batch order — right before its own update step.
			inv := 1 / float64(m)
			act, actG := sc.act, sc.actG
			for h := 0; h < n.Hidden; h++ {
				na, gradB1 := 0, 0.0
				for bi, i := range batch {
					if z1[bi][h] <= 0 {
						continue
					}
					act[na], actG[na] = X[i], dRelu[bi][h]
					gradB1 += actG[na]
					na++
				}
				rows, gs := act[:na], actG[:na]
				w, mw := n.w1[h], n.momentW1[h]
				j := 0
				for ; j+4 <= len(w); j += 4 {
					var g0, g1, g2, g3 float64
					for k, x := range rows {
						g, xs := gs[k], x[j:j+4:j+4]
						g0 += g * xs[0]
						g1 += g * xs[1]
						g2 += g * xs[2]
						g3 += g * xs[3]
					}
					mw[j] = n.Momentum*mw[j] - lr*g0*inv
					w[j] += mw[j]
					mw[j+1] = n.Momentum*mw[j+1] - lr*g1*inv
					w[j+1] += mw[j+1]
					mw[j+2] = n.Momentum*mw[j+2] - lr*g2*inv
					w[j+2] += mw[j+2]
					mw[j+3] = n.Momentum*mw[j+3] - lr*g3*inv
					w[j+3] += mw[j+3]
				}
				for ; j < len(w); j++ {
					var g0 float64
					for k, x := range rows {
						g0 += gs[k] * x[j]
					}
					mw[j] = n.Momentum*mw[j] - lr*g0*inv
					w[j] += mw[j]
				}
				n.momentB1[h] = n.Momentum*n.momentB1[h] - lr*gradB1*inv
				n.b1[h] += n.momentB1[h]
				n.momentG[h] = n.Momentum*n.momentG[h] - lr*gradGamma[h]*inv
				n.gamma[h] += n.momentG[h]
				n.momentB[h] = n.Momentum*n.momentB[h] - lr*gradBeta[h]*inv
				n.beta[h] += n.momentB[h]
				n.momentW2[h] = n.Momentum*n.momentW2[h] - lr*gradW2[h]*inv
				n.w2[h] += n.momentW2[h]
			}
			n.momentB2 = n.Momentum*n.momentB2 - lr*gradB2*inv
			n.b2 += n.momentB2
		}
		lr *= n.Decay
	}
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// Margin returns the affine output-layer value for x (§4.2.2): the
// non-convex margin whose magnitude measures classifier confidence.
// Inference uses batch-norm running statistics and no dropout. The
// pre-activations come four units at a time from preact; each unit's
// contribution is added to the margin in ascending unit order.
func (n *Net) Margin(x feature.Vector) float64 {
	if !n.trained {
		return 0
	}
	m := n.b2
	var pre [4]float64
	for h0 := 0; h0 < n.Hidden; h0 += len(pre) {
		units := pre[:min(len(pre), n.Hidden-h0)]
		preact(units, n.w1[h0:], n.b1[h0:], x)
		for k, s := range units {
			h := h0 + k
			if s < 0 {
				s = 0
			}
			xhat := (s - n.runMean[h]) / math.Sqrt(n.runVar[h]+bnEps)
			m += n.w2[h] * (n.gamma[h]*xhat + n.beta[h])
		}
	}
	return m
}

// DecisionValues writes Margin(X[rows[k]]) into out[k] for every k, bit
// for bit: the value Predict compares with DecisionThreshold. An
// untrained network writes 0. out must have room for len(rows) values.
func (n *Net) DecisionValues(X []feature.Vector, rows []int, out []float64) {
	out = out[:len(rows)]
	for k, row := range rows {
		out[k] = n.Margin(X[row])
	}
}

// DecisionThreshold returns 0, the margin Predict requires a match to
// exceed.
func (n *Net) DecisionThreshold() float64 { return 0 }

// Dim returns the feature dimensionality the network was trained on, or
// 0 for an untrained network. Deployment-time schema validation uses it
// to reject extractors that do not reproduce the training feature space.
func (n *Net) Dim() int { return n.dim }

// Predict labels x as matching when its margin is positive, that is when
// the sigmoid match probability exceeds 0.5.
func (n *Net) Predict(x feature.Vector) bool { return n.Margin(x) > 0 }

// Clone returns an untrained copy with the same hyper-parameters and a
// fresh RNG; QBC committees use it.
func (n *Net) Clone(seed int64) *Net {
	c := NewNet(n.Hidden, seed)
	c.Epochs, c.BatchSize, c.LR, c.Decay, c.Momentum, c.Dropout =
		n.Epochs, n.BatchSize, n.LR, n.Decay, n.Momentum, n.Dropout
	return c
}
