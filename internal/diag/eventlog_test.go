package diag

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/alem/alem/internal/core"
	"github.com/alem/alem/internal/dataset"
	"github.com/alem/alem/internal/eval"
	"github.com/alem/alem/internal/feature"
)

func TestEventLogRendersStream(t *testing.T) {
	var buf bytes.Buffer
	clock := time.Unix(0, 0)
	l := newEventLog(&buf, func() time.Time { return clock })

	clock = clock.Add(5 * time.Millisecond)
	pt := eval.Point{Labels: 30, F1: 0.51, Precision: 0.6, Recall: 0.44, TrainTime: 2 * time.Millisecond}
	l.Observe(core.PhaseDone{Phase: "seed", Iteration: -1, Labels: 30, LabelsDelta: 30})
	l.Observe(core.PhaseDone{Phase: "train", Iteration: 0, Labels: 30, Elapsed: 2 * time.Millisecond})
	l.Observe(core.PhaseDone{Phase: "evaluate", Iteration: 0, Labels: 30, Elapsed: 3 * time.Millisecond, Point: pt})
	pt.CommitteeCreateTime, pt.ScoreTime = 4*time.Millisecond, time.Millisecond
	l.Observe(core.PhaseDone{Phase: "select", Iteration: 0, Labels: 30, Batch: 3, Point: pt})
	l.Observe(core.PhaseDone{Phase: "label", Iteration: 0, Labels: 33, LabelsDelta: 3, Batch: 3})
	l.Observe(core.CandidateAccepted{Iteration: 0, Accepted: 1})
	l.Observe(core.PhaseDone{Phase: "select", Iteration: 1, Labels: 40, Point: pt})
	l.Observe(core.RunEnd{Iterations: 2, LabelsUsed: 40, Reason: core.StopBudget})

	out := buf.String()
	want := []string{
		"iter   0  train      n=30 in 2ms",
		"iter   0  eval       F1=0.5100 P=0.6000 R=0.4400 in 3ms",
		"iter   0  select     batch=3 committee=4ms score=1ms",
		"iter   0  ensemble   accepted classifier #1",
		"run end: label budget exhausted after 2 iterations, 40 labels",
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != len(want) {
		t.Fatalf("got %d lines, want %d (seed, label and a run-ending select render none):\n%s", len(lines), len(want), out)
	}
	for i, w := range want {
		if !strings.HasSuffix(lines[i], w) {
			t.Errorf("line %d = %q, want it to end with %q", i, lines[i], w)
		}
	}
	// Relative timestamps, not wall-clock ones.
	if !strings.Contains(lines[0], "[     5ms]") {
		t.Errorf("first line lacks the 5ms relative timestamp: %q", lines[0])
	}
}

// Minimal stand-ins: a learner that predicts by first-feature threshold
// and an Oracle answering from pool truth, enough to drive a real
// Session without importing the learner packages.
type stubLearner struct{}

func (stubLearner) Name() string                       { return "stub" }
func (stubLearner) Train(X []feature.Vector, y []bool) {}
func (stubLearner) Predict(x feature.Vector) bool      { return x[0] > 0.5 }

type stubOracle struct{ pool *core.Pool }

func (o stubOracle) Label(p dataset.PairKey) bool {
	for i, q := range o.pool.Pairs {
		if q == p {
			return o.pool.Truth[i]
		}
	}
	return false
}
func (stubOracle) Queries() int { return 0 }

func randVectors(n int, seed int64) []feature.Vector {
	r := rand.New(rand.NewSource(seed))
	out := make([]feature.Vector, n)
	for i := range out {
		out[i] = feature.Vector{r.Float64(), r.Float64()}
	}
	return out
}

func alternating(n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = i%2 == 0
	}
	return out
}

// TestEventLogObservesLiveSession wires the log into a real run and
// checks it sees every phase.
func TestEventLogObservesLiveSession(t *testing.T) {
	var buf bytes.Buffer
	pool := core.NewPoolFromVectors(randVectors(300, 9), alternating(300))
	s, err := core.NewSession(pool, stubLearner{}, core.Random{}, stubOracle{pool}, core.Config{
		Seed: 9, MaxLabels: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.AddObserver(NewEventLog(&buf))
	if _, err := s.Run(nil); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"train", "eval", "select", "run end"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("live log missing %q phase", want)
		}
	}
}
