package core

import (
	"context"
	"fmt"
	"testing"

	"github.com/alem/alem/internal/feature"
	"github.com/alem/alem/internal/linear"
	"github.com/alem/alem/internal/neural"
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
)

// valuesProbe wraps a selector and counts the Select calls whose
// context carried pool values. With drop set it removes them before the
// wrapped selector runs, which then sweeps the pool itself.
type valuesProbe struct {
	Selector
	drop              bool
	calls, withValues int
}

func (p *valuesProbe) Select(ctx *SelectContext, k int) []int {
	p.calls++
	if ctx.values.vals != nil {
		p.withValues++
	}
	if p.drop {
		ctx.values = poolValues{}
	}
	return p.Selector.Select(ctx, k)
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
	var r probedRun
	s.AddObserver(ObserverFunc(func(e Event) {
		if b, ok := e.(BatchSelected); ok {
			r.batches = append(r.batches, append([]int(nil), b.Batch...))
		}
	}))
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
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
// the SVM, the net and ten-tree forests, whose vote fractions land
// exactly on the threshold at VoteThreshold 0 (0.5) and 0.3.
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
	svm, net := linear.NewSVM(69), neural.NewNet(8, 70)
	svm.Train(X, y)
	net.Train(X, y)
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
func (l fixedLine) PredictAll(X []feature.Vector) []bool {
	out := make([]bool, len(X))
	for i, x := range X {
		out[i] = l.Predict(x)
	}
	return out
}
func (fixedLine) DecisionThreshold() float64 { return 0 }
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
