package neural

import (
	"math"
	"math/rand"
	"testing"

	"github.com/alem/alem/internal/feature"
)

// legacyTrain is the pre-scratch-buffer Train implementation, frozen
// verbatim: every per-batch buffer is freshly allocated. It is the
// reference the buffer-reuse rewrite must match bit for bit — same
// RNG draws, same arithmetic, same zero-initialization semantics.
func legacyTrain(n *Net, X []feature.Vector, y []bool) {
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
	for epoch := 0; epoch < n.Epochs; epoch++ {
		n.rand.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for start := 0; start < len(idx); start += n.BatchSize {
			end := min(start+n.BatchSize, len(idx))
			batch := idx[start:end]
			m := len(batch)

			z1 := make([][]float64, m)
			relu := make([][]float64, m)
			for bi, i := range batch {
				z1[bi] = make([]float64, n.Hidden)
				relu[bi] = make([]float64, n.Hidden)
				for h := 0; h < n.Hidden; h++ {
					s := n.b1[h]
					for j, xj := range X[i] {
						s += n.w1[h][j] * xj
					}
					z1[bi][h] = s
					if s > 0 {
						relu[bi][h] = s
					}
				}
			}
			mean := make([]float64, n.Hidden)
			variance := make([]float64, n.Hidden)
			for h := 0; h < n.Hidden; h++ {
				for bi := 0; bi < m; bi++ {
					mean[h] += relu[bi][h]
				}
				mean[h] /= float64(m)
				for bi := 0; bi < m; bi++ {
					d := relu[bi][h] - mean[h]
					variance[h] += d * d
				}
				variance[h] /= float64(m)
				n.runMean[h] = bnMomentum*n.runMean[h] + (1-bnMomentum)*mean[h]
				n.runVar[h] = bnMomentum*n.runVar[h] + (1-bnMomentum)*variance[h]
			}
			xhat := make([][]float64, m)
			bn := make([][]float64, m)
			drop := make([][]bool, m)
			for bi := 0; bi < m; bi++ {
				xhat[bi] = make([]float64, n.Hidden)
				bn[bi] = make([]float64, n.Hidden)
				drop[bi] = make([]bool, n.Hidden)
				for h := 0; h < n.Hidden; h++ {
					xhat[bi][h] = (relu[bi][h] - mean[h]) / math.Sqrt(variance[h]+bnEps)
					v := n.gamma[h]*xhat[bi][h] + n.beta[h]
					if n.rand.Float64() < n.Dropout {
						drop[bi][h] = true
						v = 0
					} else {
						v /= 1 - n.Dropout
					}
					bn[bi][h] = v
				}
			}
			dBN := make([][]float64, m)
			gradW2 := make([]float64, n.Hidden)
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
				dMargin := 2 * (p - target) * p * (1 - p)
				dBN[bi] = make([]float64, n.Hidden)
				for h := 0; h < n.Hidden; h++ {
					gradW2[h] += dMargin * bn[bi][h]
					dBN[bi][h] = dMargin * n.w2[h]
				}
				gradB2 += dMargin
			}
			gradGamma := make([]float64, n.Hidden)
			gradBeta := make([]float64, n.Hidden)
			dXhat := make([][]float64, m)
			for bi := 0; bi < m; bi++ {
				dXhat[bi] = make([]float64, n.Hidden)
				for h := 0; h < n.Hidden; h++ {
					if drop[bi][h] {
						continue
					}
					g := dBN[bi][h] / (1 - n.Dropout)
					gradGamma[h] += g * xhat[bi][h]
					gradBeta[h] += g
					dXhat[bi][h] = g * n.gamma[h]
				}
			}
			dRelu := make([][]float64, m)
			for bi := 0; bi < m; bi++ {
				dRelu[bi] = make([]float64, n.Hidden)
			}
			for h := 0; h < n.Hidden; h++ {
				invStd := 1 / math.Sqrt(variance[h]+bnEps)
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
			gradW1 := make([][]float64, n.Hidden)
			for h := range gradW1 {
				gradW1[h] = make([]float64, n.dim)
			}
			gradB1 := make([]float64, n.Hidden)
			for bi, i := range batch {
				for h := 0; h < n.Hidden; h++ {
					if z1[bi][h] <= 0 {
						continue
					}
					g := dRelu[bi][h]
					for j, xj := range X[i] {
						gradW1[h][j] += g * xj
					}
					gradB1[h] += g
				}
			}
			inv := 1 / float64(m)
			for h := 0; h < n.Hidden; h++ {
				for j := 0; j < n.dim; j++ {
					n.momentW1[h][j] = n.Momentum*n.momentW1[h][j] - lr*gradW1[h][j]*inv
					n.w1[h][j] += n.momentW1[h][j]
				}
				n.momentB1[h] = n.Momentum*n.momentB1[h] - lr*gradB1[h]*inv
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

// legacyMargin is the one-unit-at-a-time Margin, frozen verbatim: each
// hidden pre-activation summed by its own loop, its contribution added
// before the next unit starts. The four-unit Margin must match it bit
// for bit.
func legacyMargin(n *Net, x feature.Vector) float64 {
	if !n.trained {
		return 0
	}
	m := n.b2
	for h := 0; h < n.Hidden; h++ {
		s := n.b1[h]
		for j, xj := range x {
			s += n.w1[h][j] * xj
		}
		if s < 0 {
			s = 0
		}
		xhat := (s - n.runMean[h]) / math.Sqrt(n.runVar[h]+bnEps)
		m += n.w2[h] * (n.gamma[h]*xhat + n.beta[h])
	}
	return m
}

// trainingSet builds a labeled, mildly noisy, linearly-ish separable
// sample for the equivalence runs.
func trainingSet(rng *rand.Rand, n, dim int) ([]feature.Vector, []bool) {
	X := make([]feature.Vector, n)
	y := make([]bool, n)
	for i := range X {
		v := make(feature.Vector, dim)
		s := 0.0
		for j := range v {
			v[j] = rng.Float64()
			if j%2 == 0 {
				s += v[j]
			} else {
				s -= v[j]
			}
		}
		X[i] = v
		y[i] = s+0.3*rng.NormFloat64() > 0
	}
	return X, y
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestTrainMatchesLegacy pins Train and Margin bit-identical to the
// frozen allocate-per-batch trainer and the frozen one-unit-at-a-time
// Margin: same seed, same data, same number of RNG draws, and every
// learned parameter, momentum and running statistic equal to the last
// bit. The cases cover a short final mini-batch, a fit after a fit
// (scratch reuse across Train calls on the same net), hidden widths
// that leave a remainder after the four-unit blocks, feature widths
// that leave a remainder after the four-feature blocks (1, 3, and the
// 84 and 294 of the generated pools), a pool-shaped fit, and all-zero
// inputs, where no unit ever has an active row.
func TestTrainMatchesLegacy(t *testing.T) {
	for _, tc := range []struct {
		name      string
		samples   int
		dim       int
		hidden    int
		epochs    int
		seed      int64
		batchSize int
		zeroX     bool
	}{
		{"even_batches", 64, 12, 16, 10, 7, 8, false},
		{"ragged_final_batch", 61, 9, 16, 10, 8, 8, false},
		{"single_sample", 1, 5, 16, 10, 9, 8, false},
		{"batch_larger_than_set", 5, 7, 16, 10, 10, 8, false},
		{"tiny_batches", 33, 6, 16, 10, 11, 2, false},
		{"hidden_1", 40, 10, 1, 10, 12, 8, false},
		{"hidden_3", 40, 10, 3, 10, 20, 8, false},
		{"hidden_4", 40, 10, 4, 10, 21, 8, false},
		{"hidden_5", 40, 10, 5, 10, 13, 8, false},
		{"hidden_7_dim_3", 40, 3, 7, 10, 14, 8, false},
		{"dim_1", 40, 1, 16, 10, 15, 8, false},
		{"dim_84", 48, 84, 16, 10, 16, 8, false},
		{"dim_294", 24, 294, 16, 10, 17, 8, false},
		{"pool_shaped", 160, 84, 16, 50, 18, 8, false},
		{"zero_inputs", 40, 12, 16, 10, 19, 8, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			X, y := trainingSet(rng, tc.samples, tc.dim)
			if tc.zeroX {
				for _, x := range X {
					clear(x)
				}
			}

			a := NewNet(tc.hidden, tc.seed)
			a.Epochs, a.BatchSize = tc.epochs, tc.batchSize
			b := NewNet(tc.hidden, tc.seed)
			b.Epochs, b.BatchSize = tc.epochs, tc.batchSize

			a.Train(X, y)
			legacyTrain(b, X, y)

			compare := func(label string, got, want []float64) {
				t.Helper()
				if !bitsEqual(got, want) {
					t.Errorf("%s diverged from the legacy trainer", label)
				}
			}
			compareAll := func(suffix string) {
				t.Helper()
				for h := range a.w1 {
					compare("w1"+suffix, a.w1[h], b.w1[h])
					compare("momentW1"+suffix, a.momentW1[h], b.momentW1[h])
				}
				compare("b1"+suffix, a.b1, b.b1)
				compare("momentB1"+suffix, a.momentB1, b.momentB1)
				compare("gamma"+suffix, a.gamma, b.gamma)
				compare("momentG"+suffix, a.momentG, b.momentG)
				compare("beta"+suffix, a.beta, b.beta)
				compare("momentB"+suffix, a.momentB, b.momentB)
				compare("runMean"+suffix, a.runMean, b.runMean)
				compare("runVar"+suffix, a.runVar, b.runVar)
				compare("w2"+suffix, a.w2, b.w2)
				compare("momentW2"+suffix, a.momentW2, b.momentW2)
				compare("b2"+suffix, []float64{a.b2}, []float64{b.b2})
				compare("momentB2"+suffix, []float64{a.momentB2}, []float64{b.momentB2})
			}
			compareAll("")

			// RNG streams must stay aligned too: a retrain on the same
			// data must keep matching (catches any extra or missing
			// random draws in the rewritten loop).
			a.Train(X, y)
			legacyTrain(b, X, y)
			compareAll(" after retrain")

			// Inference parity on fresh inputs, against the frozen Margin.
			probe, _ := trainingSet(rng, 16, tc.dim)
			if tc.zeroX {
				probe = append(probe, make(feature.Vector, tc.dim))
			}
			for _, x := range probe {
				ma, mb := a.Margin(x), legacyMargin(b, x)
				if math.Float64bits(ma) != math.Float64bits(mb) {
					t.Fatalf("margin diverged: %v vs %v", ma, mb)
				}
			}
		})
	}
}

// TestTrainAllocsConstantPerFit ratchets the make-storm fix: the number
// of allocations in a fit must be dominated by the one-time parameter
// and scratch setup, not scale with epochs × batches. Training for 16
// epochs may allocate only marginally more than training for one.
func TestTrainAllocsConstantPerFit(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation behaviour differs under the race detector")
	}
	rng := rand.New(rand.NewSource(12))
	X, y := trainingSet(rng, 64, 10)
	allocsAt := func(epochs int) float64 {
		return testing.AllocsPerRun(5, func() {
			n := NewNet(16, 3)
			n.Epochs = epochs
			n.Train(X, y)
		})
	}
	one, sixteen := allocsAt(1), allocsAt(16)
	t.Logf("allocs per fit: epochs=1 %.0f, epochs=16 %.0f", one, sixteen)
	// The legacy trainer allocated ~80 buffers per mini-batch (64
	// samples / batch 8 = 8 batches per epoch), so 15 extra epochs cost
	// it ~10k allocations. The scratch trainer pays set-up only.
	if sixteen > one+16 {
		t.Fatalf("Train allocations scale with epochs: %.0f at 1 epoch, %.0f at 16", one, sixteen)
	}
}
