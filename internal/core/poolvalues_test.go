package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"github.com/alem/alem/internal/bayes"
	"github.com/alem/alem/internal/feature"
	"github.com/alem/alem/internal/linear"
	"github.com/alem/alem/internal/neural"
	"github.com/alem/alem/internal/rules"
	"github.com/alem/alem/internal/tree"
)

// This file pins the one-sweep AL step: a Progressive session's
// evaluation keeps its learner's decision value of every pool row, and
// the step's selector reads them instead of sweeping the pool again. A
// run must not notice: every curve point, batch and RNG draw equals the
// same run whose selector sweeps the pool itself.

// The learners whose evaluation values the selectors read.
var (
	_ DecisionLearner = (*linear.SVM)(nil)
	_ DecisionLearner = (*neural.Net)(nil)
	_ DecisionLearner = (*tree.Forest)(nil)
	_ DecisionLearner = (*rules.Model)(nil)
	_ DecisionLearner = (*bayes.NaiveBayes)(nil)
)

// valuesProbe wraps a selector, counts the Select calls whose context
// carried pool values and keeps every batch sent on to labeling. With
// drop set it removes the values before the wrapped selector runs, which
// then sweeps the pool itself.
type valuesProbe struct {
	Selector
	drop              bool
	calls, withValues int
	batches           [][]int
}

func (p *valuesProbe) Select(ctx *SelectContext, k int) []int {
	p.calls++
	if ctx.values.vals != nil {
		p.withValues++
	}
	if p.drop {
		ctx.values = poolValues{}
	}
	batch := p.Selector.Select(ctx, k)
	if len(batch) > 0 {
		p.batches = append(p.batches, append([]int(nil), batch...))
	}
	return batch
}

// probedRun is what a session run leaves behind that the pool values
// could change.
type probedRun struct {
	curve    []string // labels, F1, precision and recall of each point
	batches  [][]int
	n63, n64 uint64
	labeled  []int
}

func runProbed(t *testing.T, pool *Pool, l Learner, probe *valuesProbe, cfg Config) probedRun {
	t.Helper()
	s := mustSession(t, pool, l, probe, cfg)
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r := probedRun{batches: probe.batches}
	for _, pt := range res.Curve {
		r.curve = append(r.curve, fmt.Sprintf("%d %x %x %x", pt.Labels, pt.F1, pt.Precision, pt.Recall))
	}
	r.n63, r.n64 = s.src.n63, s.src.n64
	r.labeled = append([]int(nil), s.labeled...)
	return r
}

// TestPoolValuesEvaluationMatchesPredict pins both evaluation sweeps:
// parallelDecide's and parallelPredict's prediction of every pool row
// must be the learner's own Predict, at one, two and eight workers, for
// the SVM, the net, naive Bayes, the rule model, the Predict adapter
// over an outside learner, and ten-tree forests, whose vote fractions
// land exactly on the threshold at VoteThreshold 0 (0.5) and 0.3.
func TestPoolValuesEvaluationMatchesPredict(t *testing.T) {
	pool := syntheticPool(2*parallelCutoff+45, 67)
	labeled := make([]int, 80)
	labels := make([]bool, len(labeled))
	for i := range labeled {
		labeled[i], labels[i] = i, pool.Truth[i] != (i%5 == 0) // label noise splits the votes
	}
	X, y := gatherTraining(pool, labeled, labels, len(labeled))
	forestAt := func(th float64) DecisionLearner {
		f := tree.NewForest(10, 68)
		f.VoteThreshold = th
		f.Train(X, y)
		return f
	}
	svm, net, nb := linear.NewSVM(69), neural.NewNet(8, 70), bayes.New()
	svm.Train(X, y)
	net.Train(X, y)
	nb.Train(X, y)
	dnf := rules.NewModel(feature.NewBoolExtractor([]string{"a"}))
	dnf.Train(X, y)
	outside := &meanThreshold{}
	outside.Train(X, y)
	all := make([]int, pool.Len())
	for i := range all {
		all[i] = i
	}
	for _, tc := range []struct {
		name     string
		dl       DecisionLearner
		wantTies bool
	}{
		{"svm", svm, false},
		{"nn", net, false},
		{"bayes", nb, false},
		{"rules", dnf, true},
		{"outside", Decider(outside), true},
		{"forest", forestAt(0), true},
		{"forest-th0.3", forestAt(0.3), true},
	} {
		for _, workers := range []int{1, 2, 8} {
			vals, pred, err := parallelDecide(context.Background(), pool, all, workers, tc.dl)
			if err != nil {
				t.Fatal(err)
			}
			swept, err := parallelPredict(context.Background(), pool, all, workers, tc.dl)
			if err != nil {
				t.Fatal(err)
			}
			ties := 0
			for row, x := range pool.X {
				if pred[row] != tc.dl.Predict(x) || swept[row] != tc.dl.Predict(x) {
					t.Fatalf("%s workers=%d: row %d (value %v) predicted %v by parallelDecide and %v by parallelPredict, Predict says %v",
						tc.name, workers, row, vals[row], pred[row], swept[row], tc.dl.Predict(x))
				}
				if vals[row] == tc.dl.DecisionThreshold() {
					ties++
				}
			}
			if tc.wantTies && ties == 0 {
				t.Fatalf("%s: no row's vote fraction equals the threshold; the boundary goes untested", tc.name)
			}
		}
	}
}

// TestPoolValuesSessionEquivalence runs Progressive sessions whose
// selectors read evaluation's pool values (svm+margin, nn+margin,
// forest+forest-qbc, svm+iwal) and the same sessions behind a wrapper
// that drops the values, at one and two workers on a pool past the
// parallel cutoff. Curves, batches, labeled sets and counted-RNG
// positions must be equal, and the first run's selector must have
// received values on every call.
func TestPoolValuesSessionEquivalence(t *testing.T) {
	pool := syntheticPool(3*parallelCutoff+17, 61)
	for _, tc := range []struct {
		name    string
		learner func() Learner
		sel     Selector
	}{
		{"svm+margin", func() Learner { return linear.NewSVM(3) }, Margin{}},
		{"nn+margin", func() Learner { return neural.NewNet(8, 4) }, Margin{}},
		{"forest+forest-qbc", func() Learner { return tree.NewForest(9, 5) }, ForestQBC{}},
		{"svm+iwal", func() Learner { return linear.NewSVM(6) }, IWAL{}},
	} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				cfg := Config{Seed: 62, MaxLabels: 110, Workers: workers}
				shared := &valuesProbe{Selector: tc.sel}
				swept := &valuesProbe{Selector: tc.sel, drop: true}
				got := runProbed(t, pool, tc.learner(), shared, cfg)
				want := runProbed(t, pool, tc.learner(), swept, cfg)
				if len(got.batches) < 5 {
					t.Fatalf("run selected %d batches, want at least 5", len(got.batches))
				}
				if shared.withValues != shared.calls {
					t.Fatalf("selector got pool values on %d of %d calls, want all", shared.withValues, shared.calls)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("run reading pool values differs from the sweeping run:\n got %v\nwant %v", got, want)
				}
			})
		}
	}
}

// TestPoolValuesAbsentUnderHeldOut checks that a HeldOut session, whose
// test split is not the pool, never hands its selector values.
func TestPoolValuesAbsentUnderHeldOut(t *testing.T) {
	pool := syntheticPool(2*parallelCutoff+9, 63)
	for _, tc := range []struct {
		name    string
		learner Learner
		sel     Selector
	}{
		{"svm+margin", linear.NewSVM(7), Margin{}},
		{"forest+forest-qbc", tree.NewForest(9, 8), ForestQBC{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			probe := &valuesProbe{Selector: tc.sel}
			runProbed(t, pool, tc.learner, probe, Config{Seed: 64, MaxLabels: 80, Mode: HeldOut})
			if probe.calls == 0 || probe.withValues != 0 {
				t.Fatalf("HeldOut selector got pool values on %d of %d calls, want none", probe.withValues, probe.calls)
			}
		})
	}
}

// fixedLine is a DecisionLearner held by value whose type cannot be
// compared, because it holds a slice: a fixed linear model that ignores
// training.
type fixedLine struct{ w []float64 }

func (fixedLine) Name() string                    { return "fixed-line" }
func (fixedLine) Train([]feature.Vector, []bool)  {}
func (l fixedLine) Predict(x feature.Vector) bool { return l.Margin(x) > 0 }
func (fixedLine) DecisionThreshold() float64      { return 0 }
func (l fixedLine) Margin(x feature.Vector) float64 {
	m := -0.5
	for j, wj := range l.w {
		m += wj * x[j]
	}
	return m
}
func (l fixedLine) DecisionValues(X []feature.Vector, rows []int, out []float64) {
	for k, row := range rows {
		out[k] = l.Margin(X[row])
	}
}

// TestPoolValuesSkipIncomparableLearner runs a Progressive margin
// session over a learner that cannot be compared with ==. Its values
// cannot be tied to it by identity, so it must be swept the old way
// rather than panic when a scorer checks whose values it holds.
func TestPoolValuesSkipIncomparableLearner(t *testing.T) {
	pool := syntheticPool(parallelCutoff+40, 65)
	probe := &valuesProbe{Selector: Margin{}}
	l := fixedLine{w: []float64{0.2, 0.2, 0.2, 0.2, 0.1, 0.1, 0.1, 0.1}}
	runProbed(t, pool, l, probe, Config{Seed: 66, MaxLabels: 70})
	if probe.calls == 0 || probe.withValues != 0 {
		t.Fatalf("selector got pool values on %d of %d calls, want none", probe.withValues, probe.calls)
	}
}

// meanThreshold is examples/customlearner's thresholdLearner: a learner
// from outside the repo with Predict and Margin but no DecisionValues.
type meanThreshold struct {
	threshold float64
	trained   bool
}

func (*meanThreshold) Name() string { return "mean-threshold" }

func meanOf(x feature.Vector) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

func (t *meanThreshold) Train(X []feature.Vector, y []bool) {
	var posSum, negSum float64
	var pos, neg int
	for i, x := range X {
		if y[i] {
			posSum += meanOf(x)
			pos++
		} else {
			negSum += meanOf(x)
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		t.trained = false
		return
	}
	t.threshold = (posSum/float64(pos) + negSum/float64(neg)) / 2
	t.trained = true
}

func (t *meanThreshold) Predict(x feature.Vector) bool {
	return t.trained && meanOf(x) > t.threshold
}

func (t *meanThreshold) Margin(x feature.Vector) float64 {
	if !t.trained {
		return 0
	}
	return math.Abs(meanOf(x) - t.threshold)
}

// TestPoolValuesAbsentForOutsideLearner runs Progressive margin and IWAL
// sessions over meanThreshold, at one and two workers. Evaluation sweeps
// it through Decider's adapter, whose 0/1 values must never reach the
// selector in place of its Margin: no call may carry values, and each
// run must equal the same run behind a values-dropping wrapper.
func TestPoolValuesAbsentForOutsideLearner(t *testing.T) {
	pool := syntheticPool(3*parallelCutoff+17, 61)
	for _, tc := range []struct {
		name string
		sel  Selector
	}{
		{"margin", Margin{}},
		{"iwal", IWAL{}},
	} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				cfg := Config{Seed: 62, MaxLabels: 110, Workers: workers}
				probe := &valuesProbe{Selector: tc.sel}
				swept := &valuesProbe{Selector: tc.sel, drop: true}
				got := runProbed(t, pool, &meanThreshold{}, probe, cfg)
				want := runProbed(t, pool, &meanThreshold{}, swept, cfg)
				if len(got.batches) < 5 {
					t.Fatalf("run selected %d batches, want at least 5", len(got.batches))
				}
				if probe.calls == 0 || probe.withValues != 0 {
					t.Fatalf("selector got pool values on %d of %d calls, want none", probe.withValues, probe.calls)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("run differs from the values-dropping run:\n got %v\nwant %v", got, want)
				}
			})
		}
	}
}
