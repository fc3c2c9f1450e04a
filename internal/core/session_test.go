package core

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/alem/alem/internal/eval"
	"github.com/alem/alem/internal/feature"
	"github.com/alem/alem/internal/linear"
)

// curvesEqual compares the deterministic fields of two curves (the
// latency fields are wall-clock and never comparable across runs).
func curvesEqual(t *testing.T, a, b eval.Curve) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("curve lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Labels != b[i].Labels || a[i].F1 != b[i].F1 ||
			a[i].Precision != b[i].Precision || a[i].Recall != b[i].Recall {
			t.Fatalf("curve point %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestSessionMatchesRunWrapper(t *testing.T) {
	pool := syntheticPool(500, 11)
	cfg := Config{Seed: 11, MaxLabels: 120}

	viaRun := Run(pool, linear.NewSVM(11), Margin{}, poolOracle(pool), cfg)

	s, err := NewSession(pool, linear.NewSVM(11), Margin{}, poolOracle(pool), cfg)
	if err != nil {
		t.Fatal(err)
	}
	viaSession, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	curvesEqual(t, viaRun.Curve, viaSession.Curve)
	if viaRun.LabelsUsed != viaSession.LabelsUsed {
		t.Errorf("LabelsUsed differ: %d vs %d", viaRun.LabelsUsed, viaSession.LabelsUsed)
	}
	if s.Reason() != StopBudget {
		t.Errorf("reason = %v, want StopBudget", s.Reason())
	}
}

func TestSessionCancelledMidRunReturnsPartialCurve(t *testing.T) {
	pool := syntheticPool(800, 12)
	s, err := NewSession(pool, linear.NewSVM(12), Margin{}, poolOracle(pool),
		Config{Seed: 12, MaxLabels: 200})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const cancelAfter = 3
	evals := 0
	var endEvent *RunEnd
	s.AddObserver(ObserverFunc(func(e Event) {
		switch ev := e.(type) {
		case EvalDone:
			evals++
			if evals == cancelAfter {
				cancel()
			}
		case RunEnd:
			endEvent = &ev
		}
	}))

	before := runtime.NumGoroutine()
	res, err := s.Run(ctx)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !s.Done() || s.Reason() != StopCancelled {
		t.Fatalf("done=%v reason=%v, want done with StopCancelled", s.Done(), s.Reason())
	}
	// The iteration cancelled mid-flight is discarded; everything before
	// it is kept.
	if len(res.Curve) != cancelAfter-1 {
		t.Errorf("partial curve has %d points, want %d", len(res.Curve), cancelAfter-1)
	}
	if endEvent == nil {
		t.Fatal("no RunEnd event emitted on cancellation")
	}
	if endEvent.Reason != StopCancelled || endEvent.Err != context.Canceled {
		t.Errorf("RunEnd = %+v, want StopCancelled/context.Canceled", *endEvent)
	}
	// No goroutine leak: parallel-prediction workers must all have
	// returned. Allow brief scheduler settling.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, after)
	}
}

func TestSessionCancelledBeforeStart(t *testing.T) {
	pool := syntheticPool(300, 13)
	s, err := NewSession(pool, linear.NewSVM(13), Margin{}, poolOracle(pool),
		Config{Seed: 13, MaxLabels: 100})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := s.Run(ctx)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(res.Curve) != 0 {
		t.Errorf("curve has %d points before any iteration ran", len(res.Curve))
	}
	// The seed phase was interrupted before any Oracle query.
	if res.LabelsUsed != 0 {
		t.Errorf("LabelsUsed = %d, want 0", res.LabelsUsed)
	}
}

func TestSessionStepAfterDoneIsNoop(t *testing.T) {
	pool := syntheticPool(200, 14)
	s, err := NewSession(pool, linear.NewSVM(14), Margin{}, poolOracle(pool),
		Config{Seed: 14, MaxLabels: 50})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	n := len(s.Result().Curve)
	done, err := s.Step(context.Background())
	if !done || err != nil {
		t.Fatalf("Step after done = (%v, %v), want (true, nil)", done, err)
	}
	if len(s.Result().Curve) != n {
		t.Error("Step after done mutated the curve")
	}
}

// TestSnapshotRestoreIdenticalCurve is the resume-identity contract: run
// a few iterations, snapshot, serialize, restore against a FRESH learner
// with the same constructor seed, finish — the combined curve must be
// bit-identical to an uninterrupted run.
func TestSnapshotRestoreIdenticalCurve(t *testing.T) {
	cases := []struct {
		name string
		sel  func() Selector
	}{
		{"margin", func() Selector { return Margin{} }},
		{"qbc", func() Selector { return QBC{B: 4, Factory: svmFactory} }},
		{"iwal", func() Selector { return IWAL{} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pool := syntheticPool(500, 21)
			cfg := Config{Seed: 21, MaxLabels: 110}

			full, err := mustSession(t, pool, linear.NewSVM(21), tc.sel(), cfg).Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}

			interrupted := mustSession(t, pool, linear.NewSVM(21), tc.sel(), cfg)
			for i := 0; i < 3; i++ {
				if done, err := interrupted.Step(context.Background()); done || err != nil {
					t.Fatalf("step %d ended early: done=%v err=%v", i, done, err)
				}
			}

			// Serialize and reload the checkpoint.
			var buf bytes.Buffer
			if err := interrupted.Snapshot().Encode(&buf); err != nil {
				t.Fatal(err)
			}
			sn, err := ReadSnapshot(&buf)
			if err != nil {
				t.Fatal(err)
			}

			resumed, err := Restore(pool, linear.NewSVM(21), tc.sel(), poolOracle(pool), sn)
			if err != nil {
				t.Fatal(err)
			}
			res, err := resumed.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			curvesEqual(t, full.Curve, res.Curve)
			if full.LabelsUsed != res.LabelsUsed {
				t.Errorf("LabelsUsed differ: %d vs %d", full.LabelsUsed, res.LabelsUsed)
			}
			if resumed.Reason() != StopBudget {
				t.Errorf("resumed reason = %v, want StopBudget", resumed.Reason())
			}
		})
	}
}

func TestSnapshotRejectsCorruptState(t *testing.T) {
	pool := syntheticPool(100, 22)
	s := mustSession(t, pool, linear.NewSVM(22), Margin{}, Config{Seed: 22, MaxLabels: 40})
	if _, err := s.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	base := s.Snapshot()

	corrupt := *base
	corrupt.Labels = corrupt.Labels[:len(corrupt.Labels)-1]
	if _, err := Restore(pool, linear.NewSVM(22), Margin{}, poolOracle(pool), &corrupt); err == nil {
		t.Error("Restore accepted mismatched labeled/labels lengths")
	}

	corrupt = *base
	corrupt.Labeled = append([]int(nil), corrupt.Labeled...)
	corrupt.Labeled[0] = pool.Len() + 5
	if _, err := Restore(pool, linear.NewSVM(22), Margin{}, poolOracle(pool), &corrupt); err == nil {
		t.Error("Restore accepted an out-of-range pool index")
	}

	corrupt = *base
	corrupt.Curve = append(eval.Curve(nil), corrupt.Curve...)
	corrupt.Curve[0].Labels = len(corrupt.Labeled) + 1
	if _, err := Restore(pool, linear.NewSVM(22), Margin{}, poolOracle(pool), &corrupt); err == nil {
		t.Error("Restore accepted a curve point trained on more labels than recorded")
	}
}

// TestSeedBootstrapRespectsBudget is the regression test for the seed
// overshoot: with a single-class pool the bootstrap keeps retrying for a
// second class, and each retry must be clamped to the remaining budget.
// The old loop drew full batches and could exceed MaxLabels by up to
// BatchSize-1 (here: 40 labels against a budget of 35).
func TestSeedBootstrapRespectsBudget(t *testing.T) {
	n := 200
	X := make([]feature.Vector, n)
	truth := make([]bool, n) // all negative: bothClasses never succeeds
	r := rand.New(rand.NewSource(23))
	for i := range X {
		v := make(feature.Vector, 4)
		for j := range v {
			v[j] = r.Float64()
		}
		X[i] = v
	}
	pool := NewPoolFromVectors(X, truth)
	res := Run(pool, linear.NewSVM(23), Margin{}, poolOracle(pool), Config{
		Seed: 23, SeedLabels: 30, BatchSize: 10, MaxLabels: 35,
	})
	if res.LabelsUsed != 35 {
		t.Errorf("LabelsUsed = %d, want exactly the 35-label budget", res.LabelsUsed)
	}
	if res.Reason != StopBudget {
		t.Errorf("reason = %v, want StopBudget", res.Reason)
	}
}

func TestSessionEventOrdering(t *testing.T) {
	pool := syntheticPool(300, 24)
	s := mustSession(t, pool, linear.NewSVM(24), Margin{}, Config{Seed: 24, MaxLabels: 60})
	var events []Event
	s.AddObserver(ObserverFunc(func(e Event) { events = append(events, e) }))
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	iters := len(s.Result().Curve)
	if iters == 0 {
		t.Fatal("no iterations ran")
	}
	// The seed bootstrap emits one PhaseDone(-1). Then per iteration:
	// IterationStart, TrainDone, PhaseDone(train), EvalDone,
	// PhaseDone(evaluate), PhaseDone(select); every iteration but the last
	// adds BatchSelected and PhaseDone(label). One RunEnd closes the
	// stream.
	want := 0
	expectPhase := func(name string, iter int) {
		t.Helper()
		if want >= len(events) {
			t.Fatalf("stream ended early before PhaseDone(%s) of iteration %d", name, iter)
		}
		pd, ok := events[want].(PhaseDone)
		if !ok || pd.Phase != name || pd.Iteration != iter {
			t.Fatalf("event %d is %T%+v, want PhaseDone(%s) of iteration %d", want, events[want], events[want], name, iter)
		}
		if pd.Workers < 1 {
			t.Fatalf("PhaseDone(%s) has unresolved Workers=%d", name, pd.Workers)
		}
		want++
	}
	expectPhase("seed", -1)
	for i := 0; i < iters; i++ {
		for _, typ := range []string{"start", "train", "phase:train", "eval", "phase:evaluate", "phase:select"} {
			if want >= len(events) {
				t.Fatalf("stream ended early at iteration %d (%s)", i, typ)
			}
			if phase, isPhase := strings.CutPrefix(typ, "phase:"); isPhase {
				expectPhase(phase, i)
				continue
			}
			var ok bool
			switch typ {
			case "start":
				var ev IterationStart
				ev, ok = events[want].(IterationStart)
				if ok && (ev.Iteration != i) {
					t.Fatalf("IterationStart #%d has Iteration=%d", i, ev.Iteration)
				}
			case "train":
				_, ok = events[want].(TrainDone)
			case "eval":
				_, ok = events[want].(EvalDone)
			}
			if !ok {
				t.Fatalf("event %d is %T, want %s of iteration %d", want, events[want], typ, i)
			}
			want++
		}
		if i < iters-1 {
			if _, ok := events[want].(BatchSelected); !ok {
				t.Fatalf("event %d is %T, want BatchSelected", want, events[want])
			}
			want++
			expectPhase("label", i)
		}
	}
	if _, ok := events[want].(RunEnd); !ok {
		t.Fatalf("event %d is %T, want RunEnd", want, events[want])
	}
	if want+1 != len(events) {
		t.Errorf("stream has %d events, want %d", len(events), want+1)
	}
}

func TestCurveObserverBuildsLiveCurve(t *testing.T) {
	pool := syntheticPool(300, 25)
	s := mustSession(t, pool, linear.NewSVM(25), Margin{}, Config{Seed: 25, MaxLabels: 60})
	var b eval.CurveBuilder
	s.AddObserver(NewCurveObserver(&b))
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	built := b.Curve()
	if len(built) != len(res.Curve) {
		t.Fatalf("builder curve has %d points, result has %d", len(built), len(res.Curve))
	}
	for i := range built {
		if built[i].F1 != res.Curve[i].F1 || built[i].Labels != res.Curve[i].Labels {
			t.Fatalf("builder point %d = %+v, result %+v", i, built[i], res.Curve[i])
		}
	}
}

func TestConfigValidate(t *testing.T) {
	valid := []Config{
		{},
		{SeedLabels: 30, BatchSize: 10, MaxLabels: 100},
		{TargetF1: 0.99, HoldoutFrac: 0.3, StabilityWindow: 5, StabilityEpsilon: 0.01},
	}
	for i, c := range valid {
		if err := c.Validate(); err != nil {
			t.Errorf("valid config %d rejected: %v", i, err)
		}
	}
	invalid := []Config{
		{SeedLabels: -1},
		{BatchSize: -2},
		{MaxLabels: -10},
		{TargetF1: -0.1},
		{TargetF1: 1.5},
		{HoldoutFrac: -0.2},
		{HoldoutFrac: 1.0},
		{StabilityWindow: -3},
		{StabilityEpsilon: -0.5},
		{StabilityEpsilon: 2},
	}
	for i, c := range invalid {
		if err := c.Validate(); err == nil {
			t.Errorf("invalid config %d accepted: %+v", i, c)
		}
	}
	if _, err := NewSession(syntheticPool(50, 1), linear.NewSVM(1), Margin{},
		poolOracle(syntheticPool(50, 1)), Config{HoldoutFrac: 1.0}); err == nil {
		t.Error("NewSession accepted an invalid config")
	}
}

// TestParallelPredictPathsAgree is the serial/parallel property test:
// for sizes straddling parallelCutoff, the concurrent path must
// produce exactly the plain serial sweep.
func TestParallelPredictPathsAgree(t *testing.T) {
	svm := linear.NewSVM(26)
	pool := syntheticPool(2*parallelCutoff+37, 26)
	svm.Train(pool.X[:120], pool.Truth[:120])

	for _, n := range []int{1, parallelCutoff - 1, parallelCutoff,
		parallelCutoff + 1, pool.Len()} {
		idx := seqInts(n)
		got, err := parallelPredict(context.Background(), pool, idx, 0, svm)
		if err != nil {
			t.Fatal(err)
		}
		for j, i := range idx {
			if want := svm.Predict(pool.X[i]); got[j] != want {
				t.Fatalf("n=%d: prediction %d = %v, want %v", n, j, got[j], want)
			}
		}
	}
}

func TestParallelPredictCancelled(t *testing.T) {
	svm := linear.NewSVM(27)
	pool := syntheticPool(4*parallelCutoff, 27)
	svm.Train(pool.X[:120], pool.Truth[:120])
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := parallelPredict(ctx, pool, seqInts(pool.Len()), 0, svm); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunEnsembleContextCancellation(t *testing.T) {
	pool := syntheticPool(600, 28)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	trains := 0
	res, err := RunEnsembleContext(ctx, pool, poolOracle(pool), EnsembleConfig{
		Config:   Config{Seed: 28, MaxLabels: 300},
		Factory:  svmFactory,
		Selector: Margin{},
	}, ObserverFunc(func(e Event) {
		// Cancel during the second iteration's train phase: iteration 0
		// completes and its point must survive.
		if _, ok := e.(TrainDone); ok {
			trains++
			if trains == 2 {
				cancel()
			}
		}
	}))
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.Reason != StopCancelled {
		t.Fatalf("res = %+v, want partial result with StopCancelled", res)
	}
	if len(res.Curve) == 0 {
		t.Error("cancelled ensemble run lost its partial curve")
	}
}

// TestRunEnsembleMatchesWrapper pins that the context-aware rewrite draws
// from the RNG exactly like the wrapper path (same seed, same curve).
func TestRunEnsembleMatchesWrapper(t *testing.T) {
	pool := syntheticPool(400, 29)
	cfg := EnsembleConfig{
		Config:   Config{Seed: 29, MaxLabels: 100},
		Factory:  svmFactory,
		Selector: Margin{},
	}
	a := RunEnsemble(pool, poolOracle(pool), cfg)
	b, err := RunEnsembleContext(context.Background(), pool, poolOracle(pool), cfg)
	if err != nil {
		t.Fatal(err)
	}
	curvesEqual(t, a.Curve, b.Curve)
	if a.Accepted != b.Accepted || a.LabelsUsed != b.LabelsUsed {
		t.Errorf("accepted/labels differ: %d/%d vs %d/%d",
			a.Accepted, a.LabelsUsed, b.Accepted, b.LabelsUsed)
	}
}
