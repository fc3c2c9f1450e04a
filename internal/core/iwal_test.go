package core

import (
	"math/rand"
	"testing"

	"github.com/alem/alem/internal/linear"
	"github.com/alem/alem/internal/tree"
)

func TestIWALRequiresMarginLearner(t *testing.T) {
	pool := syntheticPool(100, 40)
	ctx := &SelectContext{
		Learner:   tree.NewForest(5, 1),
		Pool:      pool,
		Unlabeled: seqInts(pool.Len()),
		Rand:      rand.New(rand.NewSource(1)),
	}
	if got := (IWAL{}).Select(ctx, 5); got != nil {
		t.Error("IWAL accepted a non-margin learner")
	}
}

func TestIWALSelectsUpToK(t *testing.T) {
	pool := syntheticPool(400, 41)
	svm := linear.NewSVM(41)
	svm.Train(pool.X[:80], pool.Truth[:80])
	ctx := &SelectContext{
		Learner: svm, Pool: pool,
		Unlabeled: seqInts(400)[80:],
		Rand:      rand.New(rand.NewSource(2)),
	}
	got := (IWAL{}).Select(ctx, 10)
	if len(got) == 0 || len(got) > 10 {
		t.Fatalf("selected %d examples, want 1..10", len(got))
	}
	seen := map[int]bool{}
	for _, i := range got {
		if seen[i] {
			t.Fatal("duplicate selection")
		}
		seen[i] = true
	}
}

func TestIWALLearnsButUsesMoreLabels(t *testing.T) {
	// The §2 claim: IWAL reaches comparable quality but needs more
	// labels than margin to converge, because its probability floor
	// spends budget on unambiguous examples.
	pool := syntheticPool(800, 42)
	marginRes := Run(pool, linear.NewSVM(42), Margin{}, poolOracle(pool),
		Config{Seed: 42, MaxLabels: 400})
	iwalRes := Run(pool, linear.NewSVM(42), IWAL{PMin: 0.3}, poolOracle(pool),
		Config{Seed: 42, MaxLabels: 400})
	if iwalRes.Curve.BestF1() < 0.7 {
		t.Errorf("IWAL best F1 = %.3f, want >= 0.7 (it does learn)", iwalRes.Curve.BestF1())
	}
	mConv := marginRes.Curve.ConvergenceLabels(0.03)
	iConv := iwalRes.Curve.ConvergenceLabels(0.03)
	if iConv < mConv {
		t.Logf("note: IWAL converged earlier (%d) than margin (%d) on this seed", iConv, mConv)
	}
}

func TestIWALDeterministicGivenSeed(t *testing.T) {
	pool := syntheticPool(300, 43)
	a := Run(pool, linear.NewSVM(43), IWAL{}, poolOracle(pool), Config{Seed: 43, MaxLabels: 100})
	b := Run(pool, linear.NewSVM(43), IWAL{}, poolOracle(pool), Config{Seed: 43, MaxLabels: 100})
	if len(a.Curve) != len(b.Curve) {
		t.Fatal("IWAL runs differ across identical seeds")
	}
	for i := range a.Curve {
		if a.Curve[i].F1 != b.Curve[i].F1 {
			t.Fatal("IWAL curve differs across identical seeds")
		}
	}
}

func TestBlockedForestQBC(t *testing.T) {
	pool := syntheticPool(600, 44)
	res := Run(pool, tree.NewForest(10, 44), BlockedForestQBC{TargetRecall: 0.95},
		poolOracle(pool), Config{Seed: 44, MaxLabels: 150})
	if f := res.Curve.BestF1(); f < 0.85 {
		t.Errorf("blocked forest QBC best F1 = %.3f, want >= 0.85", f)
	}
	// Plain ForestQBC on the same budget for comparison: blocking must
	// not collapse quality.
	plain := Run(pool, tree.NewForest(10, 44), ForestQBC{},
		poolOracle(pool), Config{Seed: 44, MaxLabels: 150})
	if res.Curve.BestF1() < plain.Curve.BestF1()-0.1 {
		t.Errorf("blocked QBC F1 %.3f far below plain %.3f",
			res.Curve.BestF1(), plain.Curve.BestF1())
	}
}

func TestBlockedForestQBCFallsBackForOtherLearners(t *testing.T) {
	pool := syntheticPool(100, 45)
	ctx := &SelectContext{
		Learner:   linear.NewSVM(45), // margin learner, no Votes
		Pool:      pool,
		Unlabeled: seqInts(pool.Len()),
		Rand:      rand.New(rand.NewSource(1)),
	}
	if got := (BlockedForestQBC{}).Select(ctx, 5); got != nil {
		t.Error("selector accepted a non-committee learner")
	}
}

func TestMineBlockingDNFPrunes(t *testing.T) {
	pool := syntheticPool(500, 46)
	f := tree.NewForest(10, 46)
	f.Train(pool.X[:150], pool.Truth[:150])
	ctx := &SelectContext{
		Learner: f, Pool: pool,
		LabeledIdx: seqInts(150), Labels: pool.Truth[:150],
		Unlabeled: seqInts(500)[150:],
		Rand:      rand.New(rand.NewSource(2)),
	}
	sel := BlockedForestQBC{TargetRecall: 0.9}.Select(ctx, 10)
	if len(sel) == 0 {
		t.Fatal("nothing selected")
	}
	// Selected examples must come from the unlabeled pool.
	valid := map[int]bool{}
	for _, i := range ctx.Unlabeled {
		valid[i] = true
	}
	for _, i := range sel {
		if !valid[i] {
			t.Fatalf("selected %d outside the unlabeled pool", i)
		}
	}
}

func TestCombinationsGrid(t *testing.T) {
	combos := Combinations()
	if len(combos) != 5*7 {
		t.Fatalf("grid = %d cells, want 35 (5 learners x 7 selectors)", len(combos))
	}
	lookup := func(learner, selector string) Combo {
		for _, c := range combos {
			if c.LearnerFamily == learner && c.SelectorName == selector {
				return c
			}
		}
		t.Fatalf("missing combo %s x %s", learner, selector)
		return Combo{}
	}
	// The compatibility matrix of Fig. 2.
	if !lookup("linear (SVM)", "margin").Compatible {
		t.Error("SVM x margin must be compatible")
	}
	if lookup("tree-based (random forest)", "margin").Compatible {
		t.Error("forest x margin must be incompatible (no margin)")
	}
	if lookup("rule-based (monotone DNF)", "margin").Compatible {
		t.Error("rules x margin must be incompatible")
	}
	if !lookup("rule-based (monotone DNF)", "LFP/LFN").Compatible {
		t.Error("rules x LFP/LFN must be compatible")
	}
	if lookup("linear (SVM)", "LFP/LFN").Compatible {
		t.Error("SVM x LFP/LFN must be incompatible")
	}
	if !lookup("tree-based (random forest)", "learner-aware QBC").Compatible {
		t.Error("forest x learner-aware QBC must be compatible")
	}
	if lookup("non-convex non-linear (NN)", "margin+blocking (§5.1)").Compatible {
		t.Error("NN x blocking dims must be incompatible (no weight vector)")
	}
	// QBC is compatible with everything.
	for _, c := range combos {
		if c.SelectorName == "QBC (learner-agnostic)" && !c.Compatible {
			t.Errorf("QBC incompatible with %s", c.LearnerFamily)
		}
	}
	// Incompatible cells must carry a reason.
	for _, c := range combos {
		if !c.Compatible && c.Reason == "" {
			t.Errorf("combo %s x %s incompatible without a reason", c.LearnerFamily, c.SelectorName)
		}
		if c.PaperEvaluated && !c.Compatible {
			t.Errorf("combo %s x %s marked evaluated but incompatible", c.LearnerFamily, c.SelectorName)
		}
	}
}
