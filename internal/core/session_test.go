package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/alem/alem/internal/eval"
	"github.com/alem/alem/internal/feature"
	"github.com/alem/alem/internal/linear"
	"github.com/alem/alem/internal/oracle"
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

// drawsEqual compares what two finished sessions drew and bought: the
// labeled set in draw order, the session RNG's draw counters and the
// oracle's. A resumed run whose RNG was replayed from the wrong seed can
// end on the uninterrupted run's curve, but not on its draws.
func drawsEqual(t *testing.T, want, got *Session) {
	t.Helper()
	w, g := want.Snapshot(), got.Snapshot()
	if !slices.Equal(w.Labeled, g.Labeled) || !slices.Equal(w.Labels, g.Labels) {
		t.Errorf("labeled sets differ:\nwant %v\ngot  %v", w.Labeled, g.Labeled)
	}
	if w.Draws63 != g.Draws63 || w.Draws64 != g.Draws64 || w.OracleDraws != g.OracleDraws {
		t.Errorf("draws (session %d/%d, oracle %d) differ from (%d/%d, %d)",
			g.Draws63, g.Draws64, g.OracleDraws, w.Draws63, w.Draws64, w.OracleDraws)
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
		case PhaseDone:
			if ev.Phase == "evaluate" {
				if evals++; evals == cancelAfter {
					cancel()
				}
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
// a few iterations, snapshot, serialize, resume on a session built with
// a FRESH learner of the same constructor seed, finish — the combined
// curve and the draws must be bit-identical to an uninterrupted run's.
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

			ref := mustSession(t, pool, linear.NewSVM(21), tc.sel(), cfg)
			full, err := ref.Run(context.Background())
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

			resumed, err := resume(pool, linear.NewSVM(21), tc.sel(), oracle.PerPair(poolOracle(pool)), sn, nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := resumed.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			curvesEqual(t, full.Curve, res.Curve)
			drawsEqual(t, ref, resumed)
			if full.LabelsUsed != res.LabelsUsed {
				t.Errorf("LabelsUsed differ: %d vs %d", full.LabelsUsed, res.LabelsUsed)
			}
			if resumed.Reason() != StopBudget {
				t.Errorf("resumed reason = %v, want StopBudget", resumed.Reason())
			}
		})
	}
}

// TestSnapshotRejectsCorruptState checks that Resume refuses snapshot
// content that contradicts itself, the pool or Config.Validate with
// ErrInvalidSnapshot. A previous-prediction vector shorter than the test
// universe would otherwise index past its end in the first Step's
// stability check.
func TestSnapshotRejectsCorruptState(t *testing.T) {
	pool := syntheticPool(100, 22)
	s := mustSession(t, pool, linear.NewSVM(22), Margin{}, Config{Seed: 22, MaxLabels: 40, StabilityWindow: 3})
	if _, err := s.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	base := s.Snapshot()
	for name, corrupt := range map[string]func(sn *Snapshot){
		"mismatched labeled/labels lengths": func(sn *Snapshot) {
			sn.Labels = sn.Labels[:len(sn.Labels)-1]
		},
		"an out-of-range pool index": func(sn *Snapshot) {
			sn.Labeled = append([]int(nil), sn.Labeled...)
			sn.Labeled[0] = pool.Len() + 5
		},
		"a curve point trained on more labels than recorded": func(sn *Snapshot) {
			sn.Curve = append(eval.Curve(nil), sn.Curve...)
			sn.Curve[0].Labels = len(sn.Labeled) + 1
		},
		"previous predictions shorter than the test universe": func(sn *Snapshot) {
			sn.PrevPred = sn.PrevPred[:1]
		},
		"a negative batch size": func(sn *Snapshot) {
			sn.Config.BatchSize = -1
		},
	} {
		sn := *base
		corrupt(&sn)
		if _, err := resume(pool, linear.NewSVM(22), Margin{}, oracle.PerPair(poolOracle(pool)), &sn, nil); !errors.Is(err, ErrInvalidSnapshot) {
			t.Errorf("Resume of %s: err = %v, want ErrInvalidSnapshot", name, err)
		}
	}
	intact, err := resume(pool, linear.NewSVM(22), Margin{}, oracle.PerPair(poolOracle(pool)), base, nil)
	if err != nil {
		t.Fatalf("Resume refused the intact snapshot: %v", err)
	}
	if _, err := intact.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotRejectsNegativeCurveLabels checks that a curve point with
// a negative label count is an error from Resume, not a panic while
// gathering its training prefix.
func TestSnapshotRejectsNegativeCurveLabels(t *testing.T) {
	pool := syntheticPool(100, 24)
	s := mustSession(t, pool, linear.NewSVM(24), Margin{}, Config{Seed: 24, MaxLabels: 40})
	if _, err := s.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	corrupt := *s.Snapshot()
	corrupt.Curve = append(eval.Curve(nil), corrupt.Curve...)
	corrupt.Curve[0].Labels = -1
	if _, err := resume(pool, linear.NewSVM(24), Margin{}, oracle.PerPair(poolOracle(pool)), &corrupt, nil); !errors.Is(err, ErrInvalidSnapshot) {
		t.Errorf("Resume of a curve point trained on -1 labels: err = %v, want ErrInvalidSnapshot", err)
	}
}

// TestSnapshotRejectsDoublyListedPair checks that Resume refuses a pair
// listed twice across the labeled and unlabeled sets, where the resumed
// run would train on it twice or pay for it again.
func TestSnapshotRejectsDoublyListedPair(t *testing.T) {
	pool := syntheticPool(100, 25)
	s := mustSession(t, pool, linear.NewSVM(25), Margin{}, Config{Seed: 25, MaxLabels: 40})
	if _, err := s.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	base := s.Snapshot()
	for name, corrupt := range map[string]func(sn *Snapshot){
		"labeled and unlabeled": func(sn *Snapshot) {
			sn.Unlabeled = append([]int{sn.Labeled[0]}, sn.Unlabeled...)
		},
		"labeled twice": func(sn *Snapshot) {
			sn.Labeled = append(append([]int(nil), sn.Labeled...), sn.Labeled[0])
			sn.Labels = append(append([]bool(nil), sn.Labels...), sn.Labels[0])
		},
		"unlabeled twice": func(sn *Snapshot) {
			sn.Unlabeled = append(append([]int(nil), sn.Unlabeled...), sn.Unlabeled[0])
		},
	} {
		sn := *base
		corrupt(&sn)
		if _, err := resume(pool, linear.NewSVM(25), Margin{}, oracle.PerPair(poolOracle(pool)), &sn, nil); !errors.Is(err, ErrInvalidSnapshot) {
			t.Errorf("%s: Resume of a pair listed twice: err = %v, want ErrInvalidSnapshot", name, err)
		}
	}
	if _, err := resume(pool, linear.NewSVM(25), Margin{}, oracle.PerPair(poolOracle(pool)), base, nil); err != nil {
		t.Fatalf("Resume refused the intact snapshot: %v", err)
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

// TestSessionEventOrdering pins the event stream of a plain, a held-out,
// a warm-start and an ensemble session, and the curve point each
// iteration's evaluate and select phases carry.
func TestSessionEventOrdering(t *testing.T) {
	pool := syntheticPool(300, 24)
	cfg := Config{Seed: 24, MaxLabels: 60}
	for _, tc := range []struct {
		name string
		// seedRound is the size of the bootstrap's labeling round; a
		// warm-start session buys none.
		seedRound int
		session   func(t *testing.T) *Session
	}{
		{"progressive", DefaultSeedLabels, func(t *testing.T) *Session {
			return mustSession(t, pool, linear.NewSVM(24), Margin{}, cfg)
		}},
		{"heldout", DefaultSeedLabels, func(t *testing.T) *Session {
			return mustSession(t, pool, linear.NewSVM(24), Margin{}, Config{Seed: 24, MaxLabels: 60, Mode: HeldOut})
		}},
		{"warm-start", 0, func(t *testing.T) *Session {
			s := mustSession(t, pool, linear.NewSVM(24), Margin{}, cfg)
			if err := s.SetWarmStart(warmLearner(24)); err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{"ensemble", DefaultSeedLabels, func(t *testing.T) *Session {
			pool := ambiguousPool(300, 24)
			s, err := NewEnsembleSession(pool, oracle.PerPair(poolOracle(pool)),
				EnsembleConfig{Config: Config{Seed: 24, MaxLabels: 100}, Tau: 0.6, Factory: svmFactory, Selector: Margin{}})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.session(t)
			var events []Event
			s.AddObserver(ObserverFunc(func(e Event) { events = append(events, e) }))
			if _, err := s.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			accepted := checkEventOrder(t, events, tc.seedRound, s.Result().Curve)
			if s.ens != nil && (accepted == 0 || accepted != len(s.ens.members)) {
				t.Errorf("%d CandidateAccepted events for %d members; the ensemble case needs at least one", accepted, len(s.ens.members))
			}
		})
	}
}

// checkEventOrder walks a finished run's events. The seed bootstrap
// emits its round's OracleBatchDone (when it buys one), then one
// PhaseDone(-1). Each iteration then emits PhaseDone train, evaluate and
// select; every iteration but the last adds the round's OracleBatchDone
// and PhaseDone(label), and an ensemble's acceptance follows the label
// phase. One RunEnd closes the stream. Each select carries the curve
// point the run recorded, and each evaluate the same point before the
// selector's latencies were known. It returns the number of acceptances.
func checkEventOrder(t *testing.T, events []Event, seedRound int, curve eval.Curve) (accepted int) {
	t.Helper()
	if len(curve) == 0 {
		t.Fatal("no iterations ran")
	}
	next := 0
	event := func(what string) Event {
		t.Helper()
		if next >= len(events) {
			t.Fatalf("stream ended early before %s", what)
		}
		next++
		return events[next-1]
	}
	expectPhase := func(name string, iter int) PhaseDone {
		t.Helper()
		e := event(fmt.Sprintf("PhaseDone(%s) of iteration %d", name, iter))
		pd, ok := e.(PhaseDone)
		if !ok || pd.Phase != name || pd.Iteration != iter {
			t.Fatalf("event %d is %T%+v, want PhaseDone(%s) of iteration %d", next-1, e, e, name, iter)
		}
		if pd.Workers < 1 {
			t.Fatalf("PhaseDone(%s) has unresolved Workers=%d", name, pd.Workers)
		}
		if name != "evaluate" && name != "select" && pd.Point != (eval.Point{}) {
			t.Fatalf("PhaseDone(%s) of iteration %d carries point %+v, want none", name, iter, pd.Point)
		}
		return pd
	}
	expectRound := func(iter, pairs int) {
		t.Helper()
		e := event(fmt.Sprintf("OracleBatchDone of iteration %d", iter))
		ob, ok := e.(OracleBatchDone)
		if !ok || ob.Iteration != iter || ob.Pairs != pairs || ob.Labels != pairs || ob.Answers != pairs {
			t.Fatalf("event %d is %T%+v, want OracleBatchDone of %d labels in iteration %d", next-1, e, e, pairs, iter)
		}
	}
	if seedRound > 0 {
		expectRound(0, seedRound)
	}
	expectPhase("seed", -1)
	for i, want := range curve {
		expectPhase("train", i)
		ev := expectPhase("evaluate", i).Point
		if ev.Labels != want.Labels || ev.F1 != want.F1 || ev.Precision != want.Precision ||
			ev.Recall != want.Recall || ev.TrainTime != want.TrainTime {
			t.Fatalf("iteration %d: evaluate point %+v, curve point %+v", i, ev, want)
		}
		sel := expectPhase("select", i)
		if sel.Point != want {
			t.Fatalf("iteration %d: select point %+v, curve point %+v", i, sel.Point, want)
		}
		if i == len(curve)-1 {
			break
		}
		expectRound(i, sel.Batch)
		expectPhase("label", i)
		if ca, ok := events[next].(CandidateAccepted); ok && ca.Iteration == i {
			next++
			accepted++
		}
	}
	if _, ok := event("RunEnd").(RunEnd); !ok {
		t.Fatalf("event %d is %T, want RunEnd", next-1, events[next-1])
	}
	if next != len(events) {
		t.Errorf("stream has %d events, want %d", len(events), next)
	}
	return accepted
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
		if pd, ok := e.(PhaseDone); ok && pd.Phase == "train" {
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
