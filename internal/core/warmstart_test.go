package core

// Transfer warm-start tests: a learner pre-trained on a different pool
// drives the first selections (no random seed bootstrap is bought), the
// session's own learner takes over once the labeled set contains both
// classes, and the whole protocol survives snapshot/resume.

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"github.com/alem/alem/internal/linear"
	"github.com/alem/alem/internal/oracle"
)

// warmLearner trains a fresh SVM on a source pool's full truth — the
// artifact a transfer run would load from disk.
func warmLearner(seed int64) Learner {
	src := syntheticPool(400, seed)
	l := linear.NewSVM(seed)
	l.Train(src.X, src.Truth)
	return l
}

func TestWarmStartSkipsBootstrapAndHandsOver(t *testing.T) {
	pool := ambiguousPool(400, 91)
	cfg := Config{Seed: 91, MaxLabels: 80}
	s := mustSession(t, pool, linear.NewSVM(91), Margin{}, cfg)
	if err := s.SetWarmStart(warmLearner(91)); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve) == 0 {
		t.Fatal("warm-start run produced no curve")
	}
	// No seed bootstrap: the first iteration evaluates before any label
	// was bought, where a cold run enters with the ~30-label seed sample.
	if res.Curve[0].Labels != 0 {
		t.Errorf("first curve point has %d labels, want 0 (bootstrap must be skipped)", res.Curve[0].Labels)
	}
	if s.Reason() != StopBudget {
		t.Errorf("reason = %v, want StopBudget", s.Reason())
	}
	if res.LabelsUsed != cfg.MaxLabels {
		t.Errorf("LabelsUsed = %d, want the full budget %d", res.LabelsUsed, cfg.MaxLabels)
	}
	// The handover happened: by the end the labeled set trains the
	// session's own learner.
	if s.useWarm() {
		t.Error("session still on the warm learner after a full budget of labels")
	}
	// The config records the protocol so snapshots carry it.
	if s.Snapshot().Config.WarmStartModel != "inline" {
		t.Errorf("snapshot WarmStartModel = %q, want \"inline\"", s.Snapshot().Config.WarmStartModel)
	}
}

// TestWarmStartResumeBitIdentical pins the checkpoint story: a warm-start
// run snapshotted mid-way and resumed — with the warm learner
// re-attached — reproduces the uninterrupted run's curve and draws
// exactly; the replay skips retraining on prefixes the warm learner
// served.
func TestWarmStartResumeBitIdentical(t *testing.T) {
	pool := ambiguousPool(400, 92)
	cfg := Config{Seed: 92, MaxLabels: 80}

	ref := mustSession(t, pool, linear.NewSVM(92), Margin{}, cfg)
	if err := ref.SetWarmStart(warmLearner(92)); err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	victim := mustSession(t, pool, linear.NewSVM(92), Margin{}, cfg)
	if err := victim.SetWarmStart(warmLearner(92)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if done, err := victim.Step(context.Background()); done || err != nil {
			t.Fatalf("step %d: done=%v err=%v", i, done, err)
		}
	}
	var buf bytes.Buffer
	if err := victim.Snapshot().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	sn, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}

	resumed, err := resume(pool, linear.NewSVM(92), Margin{}, oracle.PerPair(poolOracle(pool)), sn, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.SetWarmStart(warmLearner(92)); err != nil {
		t.Fatal(err)
	}
	resRes, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	curvesEqual(t, refRes.Curve, resRes.Curve)
	drawsEqual(t, ref, resumed)
}

// TestWarmStartMissingLearnerRefusesToRun pins the resume guard: a
// snapshot that records a warm-start protocol cannot be driven without
// re-attaching the learner — silently falling back to a cold start would
// diverge from the recorded trajectory.
func TestWarmStartMissingLearnerRefusesToRun(t *testing.T) {
	pool := ambiguousPool(300, 93)
	s := mustSession(t, pool, linear.NewSVM(93), Margin{}, Config{Seed: 93, MaxLabels: 40})
	if err := s.SetWarmStart(warmLearner(93)); err != nil {
		t.Fatal(err)
	}
	if done, err := s.Step(context.Background()); done || err != nil {
		t.Fatalf("done=%v err=%v", done, err)
	}
	var buf bytes.Buffer
	if err := s.Snapshot().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	sn, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := resume(pool, linear.NewSVM(93), Margin{}, oracle.PerPair(poolOracle(pool)), sn, nil)
	if err != nil {
		t.Fatal(err)
	}
	done, err := restored.Step(context.Background())
	if !done || err == nil {
		t.Fatalf("Step without SetWarmStart: done=%v err=%v, want an error", done, err)
	}
	if !strings.Contains(err.Error(), "warm-start") {
		t.Errorf("error %q does not mention the missing warm-start learner", err)
	}
}

// TestSetWarmStartRejectsNil covers the constructor contract.
func TestSetWarmStartRejectsNil(t *testing.T) {
	pool := ambiguousPool(100, 94)
	s := mustSession(t, pool, linear.NewSVM(94), Margin{}, Config{Seed: 94, MaxLabels: 20})
	if err := s.SetWarmStart(nil); err == nil {
		t.Fatal("SetWarmStart(nil) accepted")
	}
}
