package core

import (
	"context"
	"math/rand"
	"testing"

	"github.com/alem/alem/internal/eval"

	"github.com/alem/alem/internal/bayes"
	"github.com/alem/alem/internal/dataset"
	"github.com/alem/alem/internal/feature"
	"github.com/alem/alem/internal/linear"
	"github.com/alem/alem/internal/neural"
	"github.com/alem/alem/internal/tree"
)

// countingOracle records every pair it is asked to label, so tests can
// assert the loop never queries the same pair twice (labels are
// cumulative; re-querying would inflate the #labels metric).
type countingOracle struct {
	pool    *Pool
	seen    map[dataset.PairKey]int
	queries int
}

func newCountingOracle(p *Pool) *countingOracle {
	return &countingOracle{pool: p, seen: map[dataset.PairKey]int{}}
}

func (o *countingOracle) Label(p dataset.PairKey) bool {
	o.queries++
	o.seen[p]++
	for i, q := range o.pool.Pairs {
		if q == p {
			return o.pool.Truth[i]
		}
	}
	return false
}

func (o *countingOracle) Queries() int { return o.queries }

func TestRunNeverRelabelsAPair(t *testing.T) {
	pool := syntheticPool(400, 21)
	o := newCountingOracle(pool)
	res := Run(pool, linear.NewSVM(21), Margin{}, o, Config{Seed: 21, MaxLabels: 150})
	for p, n := range o.seen {
		if n > 1 {
			t.Fatalf("pair %v labeled %d times", p, n)
		}
	}
	if o.queries != res.LabelsUsed {
		t.Errorf("oracle queries %d != labels used %d", o.queries, res.LabelsUsed)
	}
}

func TestEnsembleNeverRelabelsAPair(t *testing.T) {
	pool := syntheticPool(400, 22)
	o := newCountingOracle(pool)
	res := RunEnsemble(pool, o, EnsembleConfig{
		Config: Config{Seed: 22, MaxLabels: 150}, Factory: svmFactory, Selector: Margin{},
	})
	for p, n := range o.seen {
		if n > 1 {
			t.Fatalf("pair %v labeled %d times", p, n)
		}
	}
	if o.queries != res.LabelsUsed {
		t.Errorf("oracle queries %d != labels used %d", o.queries, res.LabelsUsed)
	}
}

func TestRunLabelBudgetRespectedByEverySelector(t *testing.T) {
	pool := syntheticPool(300, 23)
	selectors := []Selector{
		Margin{}, BlockedMargin{TopK: 2}, Random{},
		QBC{B: 3, Factory: svmFactory},
	}
	for _, sel := range selectors {
		o := newCountingOracle(pool)
		res := Run(pool, linear.NewSVM(23), sel, o, Config{Seed: 23, MaxLabels: 77})
		if res.LabelsUsed > 77 {
			t.Errorf("%s: labels used %d > budget 77", sel.Name(), res.LabelsUsed)
		}
	}
}

// TestNNActiveEnsemble exercises the §5.2 extension the paper describes
// but does not evaluate: active ensembles over neural networks, which
// the generic EnsembleConfig supports without modification.
func TestNNActiveEnsemble(t *testing.T) {
	pool := syntheticPool(400, 24)
	res := RunEnsemble(pool, poolOracle(pool), EnsembleConfig{
		Config: Config{Seed: 24, MaxLabels: 150},
		Factory: func(seed int64) Learner {
			n := neural.NewNet(8, seed)
			n.Epochs = 10
			return n
		},
		Selector: Margin{},
	})
	if res.Curve.BestF1() < 0.6 {
		t.Errorf("NN ensemble best F1 = %.3f, want >= 0.6", res.Curve.BestF1())
	}
}

// TestNaiveBayesPlugsIn verifies the Fig. 2 plug-and-play claim with a
// learner outside the paper's four families.
func TestNaiveBayesPlugsIn(t *testing.T) {
	pool := syntheticPool(400, 25)
	nbFactory := func(int64) Learner { return bayes.New() }
	for _, sel := range []Selector{Margin{}, QBC{B: 5, Factory: nbFactory}, Random{}} {
		res := Run(pool, bayes.New(), sel, poolOracle(pool), Config{Seed: 25, MaxLabels: 120})
		if res.Curve.BestF1() < 0.6 {
			t.Errorf("NB + %s best F1 = %.3f, want >= 0.6", sel.Name(), res.Curve.BestF1())
		}
	}
}

func TestSelectorsHandleDegenerateRequests(t *testing.T) {
	pool := syntheticPool(50, 26)
	svm := linear.NewSVM(26)
	svm.Train(pool.X[:10], pool.Truth[:10])
	ctx := func() *SelectContext {
		return &SelectContext{
			Learner: svm, Pool: pool,
			LabeledIdx: seqInts(10), Labels: pool.Truth[:10],
			Unlabeled: seqInts(50)[10:],
			Rand:      rand.New(rand.NewSource(1)),
		}
	}
	for _, sel := range []Selector{Margin{}, BlockedMargin{TopK: 1}, Random{}, QBC{B: 2, Factory: svmFactory}} {
		if got := sel.Select(ctx(), 0); len(got) != 0 {
			t.Errorf("%s: k=0 returned %d examples", sel.Name(), len(got))
		}
		if got := sel.Select(ctx(), 1000); len(got) > 40 {
			t.Errorf("%s: k>pool returned %d examples (> unlabeled size)", sel.Name(), len(got))
		}
	}
	// Empty unlabeled pool.
	empty := ctx()
	empty.Unlabeled = nil
	for _, sel := range []Selector{Margin{}, Random{}} {
		if got := sel.Select(empty, 5); len(got) != 0 {
			t.Errorf("%s: empty pool returned %v", sel.Name(), got)
		}
	}
}

func TestForestQBCVarianceTargetsDisagreement(t *testing.T) {
	// Train a forest, then check that selected examples have higher
	// committee variance than the average unselected example.
	pool := syntheticPool(500, 27)
	f := tree.NewForest(20, 27)
	f.Train(pool.X[:100], pool.Truth[:100])
	ctx := &SelectContext{
		Learner: f, Pool: pool,
		Unlabeled: seqInts(500)[100:],
		Rand:      rand.New(rand.NewSource(2)),
	}
	sel := ForestQBC{}.Select(ctx, 10)
	if len(sel) == 0 {
		t.Fatal("nothing selected")
	}
	variance := func(i int) float64 {
		pos, total := f.Votes(pool.X[i])
		p := float64(pos) / float64(total)
		return p * (1 - p)
	}
	var selVar float64
	for _, i := range sel {
		selVar += variance(i)
	}
	selVar /= float64(len(sel))
	var avgVar float64
	for _, i := range ctx.Unlabeled {
		avgVar += variance(i)
	}
	avgVar /= float64(len(ctx.Unlabeled))
	if selVar < avgVar {
		t.Errorf("selected variance %.4f below pool average %.4f", selVar, avgVar)
	}
}

func TestMarginSelectsSmallestMargins(t *testing.T) {
	pool := syntheticPool(300, 28)
	svm := linear.NewSVM(28)
	svm.Train(pool.X[:60], pool.Truth[:60])
	unlabeled := seqInts(300)[60:]
	ctx := &SelectContext{
		Learner: svm, Pool: pool, Unlabeled: unlabeled,
		Rand: rand.New(rand.NewSource(3)),
	}
	sel := Margin{}.Select(ctx, 5)
	maxSel := 0.0
	for _, i := range sel {
		if m := svm.Margin(pool.X[i]); m > maxSel {
			maxSel = m
		}
	}
	// No unselected example may have a strictly smaller margin than the
	// largest selected one.
	selSet := map[int]bool{}
	for _, i := range sel {
		selSet[i] = true
	}
	for _, i := range unlabeled {
		if selSet[i] {
			continue
		}
		if svm.Margin(pool.X[i]) < maxSel-1e-12 {
			t.Fatalf("unselected example %d has margin %.6f < selected max %.6f",
				i, svm.Margin(pool.X[i]), maxSel)
		}
	}
}

// featureVecDim guards against accidental dimension mismatches between
// extractor and pool construction.
func TestPoolVectorWidthsConsistent(t *testing.T) {
	pool := syntheticPool(50, 29)
	w := len(pool.X[0])
	for i, x := range pool.X {
		if len(x) != w {
			t.Fatalf("vector %d has width %d, want %d", i, len(x), w)
		}
	}
	_ = feature.Vector(nil) // keep the feature import honest
}

func TestRunTinyLabelBudget(t *testing.T) {
	// MaxLabels below the seed-set size: the run must clamp and terminate.
	pool := syntheticPool(200, 30)
	res := Run(pool, linear.NewSVM(30), Margin{}, poolOracle(pool), Config{
		Seed: 30, MaxLabels: 10,
	})
	if res.LabelsUsed > 10 {
		t.Errorf("labels used %d > budget 10", res.LabelsUsed)
	}
	if len(res.Curve) == 0 {
		t.Error("no curve points recorded")
	}
}

func TestRunOnIterationCalledPerPoint(t *testing.T) {
	pool := syntheticPool(200, 31)
	calls := 0
	res := Run(pool, linear.NewSVM(31), Margin{}, poolOracle(pool), Config{
		Seed: 31, MaxLabels: 60,
		OnIteration: func(l Learner, pt *eval.Point) {
			calls++
			pt.Depth = 7 // enrichment must land in the recorded point
		},
	})
	if calls != len(res.Curve) {
		t.Errorf("OnIteration called %d times for %d points", calls, len(res.Curve))
	}
	for _, p := range res.Curve {
		if p.Depth != 7 {
			t.Fatal("OnIteration enrichment lost")
		}
	}
}

func TestParallelPredictMatchesSequential(t *testing.T) {
	pool := syntheticPool(1000, 32)
	svm := linear.NewSVM(32)
	svm.Train(pool.X[:100], pool.Truth[:100])
	idx := seqInts(1000)
	par, err := parallelPredict(context.Background(), pool, idx, 0, svm)
	if err != nil {
		t.Fatal(err)
	}
	for j, i := range idx {
		if par[j] != svm.Predict(pool.X[i]) {
			t.Fatalf("parallel prediction %d differs", j)
		}
	}
	// Small input takes the sequential path; same contract.
	small, err := parallelPredict(context.Background(), pool, idx[:10], 0, svm)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 10; j++ {
		if small[j] != svm.Predict(pool.X[j]) {
			t.Fatalf("sequential-path prediction %d differs", j)
		}
	}
}

// TestConcurrentRunsAreIndependent runs several AL loops concurrently on
// the same pool; with -race this catches any shared mutable state in
// learners, selectors or the pool.
func TestConcurrentRunsAreIndependent(t *testing.T) {
	pool := syntheticPool(300, 60)
	results := make([]*Result, 4)
	done := make(chan int, 4)
	for g := 0; g < 4; g++ {
		go func(g int) {
			results[g] = Run(pool, linear.NewSVM(60), Margin{}, poolOracle(pool),
				Config{Seed: 60, MaxLabels: 80})
			done <- g
		}(g)
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	for g := 1; g < 4; g++ {
		if len(results[g].Curve) != len(results[0].Curve) {
			t.Fatal("concurrent same-seed runs diverged")
		}
		for i := range results[g].Curve {
			if results[g].Curve[i].F1 != results[0].Curve[i].F1 {
				t.Fatal("concurrent same-seed runs produced different curves")
			}
		}
	}
}

func TestStabilityStopTerminatesEarly(t *testing.T) {
	// An easy pool: the model stabilizes long before labels run out, so
	// the churn criterion should fire well before MaxLabels.
	pool := syntheticPool(800, 61)
	capped := Run(pool, tree.NewForest(10, 61), ForestQBC{}, poolOracle(pool), Config{
		Seed: 61, MaxLabels: 500,
	})
	stopped := Run(pool, tree.NewForest(10, 61), ForestQBC{}, poolOracle(pool), Config{
		Seed: 61, MaxLabels: 500, StabilityWindow: 3,
	})
	if stopped.LabelsUsed >= capped.LabelsUsed {
		t.Errorf("stability stop used %d labels, no fewer than the capped run's %d",
			stopped.LabelsUsed, capped.LabelsUsed)
	}
	// Quality must not collapse relative to the full run.
	if stopped.Curve.FinalF1() < capped.Curve.FinalF1()-0.1 {
		t.Errorf("stability-stopped F1 %.3f far below full run %.3f",
			stopped.Curve.FinalF1(), capped.Curve.FinalF1())
	}
}

func TestHeldOutFractionConfigurable(t *testing.T) {
	pool := syntheticPool(400, 62)
	res := Run(pool, linear.NewSVM(62), Margin{}, poolOracle(pool), Config{
		Seed: 62, Mode: HeldOut, HoldoutFrac: 0.5, MaxLabels: 60,
	})
	if res.TestSize != 200 {
		t.Errorf("50%% holdout test size = %d, want 200", res.TestSize)
	}
}

func TestStabilityEpsilonCustom(t *testing.T) {
	pool := syntheticPool(400, 63)
	// A huge epsilon treats everything as stable: stop after the window.
	res := Run(pool, linear.NewSVM(63), Margin{}, poolOracle(pool), Config{
		Seed: 63, StabilityWindow: 2, StabilityEpsilon: 1.0,
	})
	// Seed 30 + window 2 extra iterations at batch 10 ≈ 50-60 labels.
	if res.LabelsUsed > 80 {
		t.Errorf("epsilon=1 run used %d labels, want immediate stability stop", res.LabelsUsed)
	}
}

func TestCurveFieldsWellFormed(t *testing.T) {
	pool := syntheticPool(300, 64)
	res := Run(pool, linear.NewSVM(64), QBC{B: 3, Factory: svmFactory},
		poolOracle(pool), Config{Seed: 64, MaxLabels: 80})
	for i, p := range res.Curve {
		if p.F1 < 0 || p.F1 > 1 || p.Precision < 0 || p.Precision > 1 || p.Recall < 0 || p.Recall > 1 {
			t.Fatalf("point %d has out-of-range metrics: %+v", i, p)
		}
		if p.TrainTime < 0 || p.CommitteeCreateTime < 0 || p.ScoreTime < 0 {
			t.Fatalf("point %d has negative latency: %+v", i, p)
		}
		if p.Labels < 1 || p.Labels > pool.Len() {
			t.Fatalf("point %d labels %d outside [1,%d]", i, p.Labels, pool.Len())
		}
		// F1 must be consistent with precision/recall.
		if p.Precision+p.Recall > 0 {
			want := 2 * p.Precision * p.Recall / (p.Precision + p.Recall)
			if diff := p.F1 - want; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("point %d F1 %v inconsistent with P/R %v/%v", i, p.F1, p.Precision, p.Recall)
			}
		}
	}
}
