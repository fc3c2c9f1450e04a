package core

import (
	"context"
	"fmt"

	"github.com/alem/alem/internal/eval"
	"github.com/alem/alem/internal/oracle"
	"github.com/alem/alem/internal/par"
)

// EvalMode selects the train/test protocol (§6 "Train-Test Splits").
type EvalMode int

const (
	// Progressive evaluates every iteration's model on ALL post-blocking
	// pairs, labeled and unlabeled — the paper's progressive F1.
	Progressive EvalMode = iota
	// HeldOut uses the conventional supervised split: 80% of the pool is
	// the selection universe, 20% is a held-out test set (Figs. 16, 17).
	HeldOut
)

// Defaults substituted for zero-valued Config fields. A zero value means
// "unset, use the paper's setting" — Config cannot express a literal
// zero for these fields (a zero seed set, batch, holdout fraction or
// stability epsilon would be degenerate anyway; Validate documents the
// accepted ranges).
const (
	// DefaultSeedLabels is the paper's initial labeled sample (~30, §3).
	DefaultSeedLabels = 30
	// DefaultBatchSize is the paper's per-iteration batch (10, §6).
	DefaultBatchSize = 10
	// DefaultHoldoutFrac is the held-out fraction under HeldOut.
	DefaultHoldoutFrac = 0.2
	// DefaultStabilityEpsilon is the churn threshold when a
	// StabilityWindow is set.
	DefaultStabilityEpsilon = 0.002
	// DefaultAbstainCutoff is how many abstentions a batch oracle may
	// issue for one pair before the engine retires it from the pool
	// (resolved at use, not in withDefaults, so legacy snapshots keep
	// their exact bytes).
	DefaultAbstainCutoff = 3
)

// Config is the protocol of one active-learning run. Zero values pick the
// paper's settings (seed 30, batch 10); see the Default* constants and
// Validate for the accepted ranges.
type Config struct {
	// SeedLabels is the size of the initial labeled sample. 0 means
	// DefaultSeedLabels (30).
	SeedLabels int
	// BatchSize is the number of examples labeled per iteration. 0 means
	// DefaultBatchSize (10).
	BatchSize int
	// MaxLabels terminates the run after this many Oracle queries; 0
	// means the whole pool may be labeled (the noisy-Oracle criterion).
	MaxLabels int
	// TargetF1 terminates the run as soon as the evaluated F1 reaches it
	// (the perfect-Oracle criterion: near-perfect ≈ 0.99); 0 disables.
	TargetF1 float64
	// Mode chooses the evaluation protocol.
	Mode EvalMode
	// HoldoutFrac is the held-out fraction under HeldOut, in (0, 1).
	// 0 means DefaultHoldoutFrac (0.2).
	HoldoutFrac float64
	// Seed makes the run deterministic.
	Seed int64
	// StabilityWindow enables a ground-truth-free stopping criterion the
	// paper's §6.2 motivates ("the sweet spot in terms of when to
	// terminate active learning ... may differ across datasets"): stop
	// when the model's predictions over the pool have churned less than
	// StabilityEpsilon (fraction of flipped predictions) for this many
	// consecutive iterations. 0 disables.
	StabilityWindow int
	// StabilityEpsilon is the churn threshold, in (0, 1]. 0 means
	// DefaultStabilityEpsilon (0.002).
	StabilityEpsilon float64
	// MaxDollars terminates the run once the session's cost ledger can
	// no longer afford another answer at the labeler's worst-case price
	// (StopBudgetExhausted); 0 disables dollar budgeting. It only
	// applies to labelers that report a positive MaxAnswerCost
	// (oracle.Priced) — free oracles, per-pair ones included, never
	// spend.
	MaxDollars float64 `json:",omitempty"`
	// AbstainCutoff is how many times a batch oracle may abstain on one
	// pair before the engine retires the pair (removes it from the pool
	// without a label) instead of requeueing it — the starvation guard
	// that keeps a stubbornly-unsure labeler from pinning the same pair
	// forever. 0 means DefaultAbstainCutoff (3).
	AbstainCutoff int `json:",omitempty"`
	// WarmStartModel records the transfer warm-start protocol: when
	// non-empty, the session skips the seed bootstrap and drives
	// selection with a pre-trained learner (attached via SetWarmStart)
	// until the labeled set contains both classes, at which point the
	// usual retrain-from-scratch protocol takes over. CLIs store the
	// artifact path here; in-process callers get "inline". A snapshot of
	// a warm-started run carries the value, and Step refuses to run a
	// resumed session whose warm learner was not re-attached.
	WarmStartModel string `json:",omitempty"`
	// Workers caps the goroutines used by the run's parallel hot paths:
	// evaluation prediction, selector scoring and QBC committee training.
	// 0 means one worker per CPU (runtime.GOMAXPROCS), resolved on the
	// machine doing the work; 1 forces the serial path. Workers is
	// machine tuning, not protocol — all shared randomness is pre-drawn
	// before any fan-out, so every worker count produces bit-identical
	// results — which is why it is excluded from Snapshots and
	// checkpoints stay portable across machines (a resumed session keeps
	// the worker count it was built with).
	Workers int `json:"-"`
}

// Validate rejects configs whose fields are outside their documented
// ranges: negative counts, fractions outside [0, 1), a TargetF1 or
// StabilityEpsilon above 1. A zero value is always valid and means "use
// the default" (see the Default* constants); Validate is how a caller
// distinguishes a deliberate out-of-range value from an unset field.
func (c Config) Validate() error {
	switch {
	case c.SeedLabels < 0:
		return fmt.Errorf("core: Config.SeedLabels %d is negative", c.SeedLabels)
	case c.BatchSize < 0:
		return fmt.Errorf("core: Config.BatchSize %d is negative", c.BatchSize)
	case c.MaxLabels < 0:
		return fmt.Errorf("core: Config.MaxLabels %d is negative", c.MaxLabels)
	case c.TargetF1 < 0 || c.TargetF1 > 1:
		return fmt.Errorf("core: Config.TargetF1 %g outside [0, 1]", c.TargetF1)
	case c.HoldoutFrac < 0 || c.HoldoutFrac >= 1:
		return fmt.Errorf("core: Config.HoldoutFrac %g outside [0, 1)", c.HoldoutFrac)
	case c.StabilityWindow < 0:
		return fmt.Errorf("core: Config.StabilityWindow %d is negative", c.StabilityWindow)
	case c.StabilityEpsilon < 0 || c.StabilityEpsilon > 1:
		return fmt.Errorf("core: Config.StabilityEpsilon %g outside [0, 1]", c.StabilityEpsilon)
	case c.Workers < 0:
		return fmt.Errorf("core: Config.Workers %d is negative", c.Workers)
	case c.MaxDollars < 0:
		return fmt.Errorf("core: Config.MaxDollars %g is negative", c.MaxDollars)
	case c.AbstainCutoff < 0:
		return fmt.Errorf("core: Config.AbstainCutoff %d is negative", c.AbstainCutoff)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.SeedLabels == 0 {
		c.SeedLabels = DefaultSeedLabels
	}
	if c.BatchSize == 0 {
		c.BatchSize = DefaultBatchSize
	}
	if c.HoldoutFrac == 0 {
		c.HoldoutFrac = DefaultHoldoutFrac
	}
	if c.StabilityEpsilon == 0 {
		c.StabilityEpsilon = DefaultStabilityEpsilon
	}
	return c
}

// Result is the outcome of one run.
type Result struct {
	Curve      eval.Curve
	LabelsUsed int
	// TestSize is the number of pairs each curve point was evaluated on.
	TestSize int
	// Reason records why the run terminated (StopNone on results from
	// sources that predate the Session engine, e.g. deserialized data).
	Reason StopReason
}

// Run executes the active-learning loop of Fig. 1a: train on the
// cumulative labeled set, evaluate, select a batch with the example
// selector, query the Oracle, repeat. It terminates on TargetF1,
// MaxLabels, an empty selection (rule learners), stability, or pool
// exhaustion.
//
// Run is a compatibility wrapper over the Session engine and produces
// bit-identical curves to the pre-Session implementation; use a Session
// directly for cancellation, the event stream, or checkpoint/resume. It
// panics on an invalid Config (NewSession returns the error instead).
func Run(pool *Pool, learner Learner, sel Selector, o oracle.Oracle, cfg Config) *Result {
	s, err := NewSession(pool, learner, sel, o, cfg)
	if err != nil {
		panic(err)
	}
	res, _ := s.Run(context.Background())
	return res
}

// parallelPredict reports, for each pool row idx[j], whether any of
// learners predicts it a match: the session's one learner, or an
// ensemble's accepted classifiers plus its candidate. It sweeps idx in
// pool-row blocks with up to workers goroutines (<= 0 means one per CPU),
// each learner (through Decider) scoring a whole block in turn (see
// countPositive); the output stays in idx order. Learner prediction only
// reads model state, so concurrent evaluation is safe. Cancelling ctx
// makes every worker stop within one block; the partial output is
// discarded and ctx's error returned.
func parallelPredict(ctx context.Context, pool *Pool, idx []int, workers int, learners ...Learner) ([]bool, error) {
	dls := make([]DecisionLearner, len(learners))
	for i, l := range learners {
		dls[i] = Decider(l)
	}
	pred := make([]bool, len(idx))
	if err := parallelForRows(ctx, pool.Len(), idx, workers, func(slots, rows []int) {
		var pos [par.Stride]int
		for _, dl := range dls {
			countPositive(dl, pool.X, rows, pos[:])
		}
		for k, j := range slots {
			pred[j] = pos[k] > 0
		}
	}); err != nil {
		return nil, err
	}
	return pred, nil
}

// parallelDecide is parallelPredict for one DecisionLearner that keeps
// the values behind the predictions: vals[j] is dl's decision value of
// pool row idx[j] and pred[j] is vals[j] > dl.DecisionThreshold(), which
// is Predict bit for bit. It sweeps idx in its own order, in the blocks
// and with the cancellation checks parallelPredict uses; a Progressive
// session passes every pool row in row order, so vals is then a per-row
// table the selector can read.
func parallelDecide(ctx context.Context, pool *Pool, idx []int, workers int, dl DecisionLearner) ([]float64, []bool, error) {
	vals := make([]float64, len(idx))
	pred := make([]bool, len(idx))
	th := dl.DecisionThreshold()
	if err := par.Blocks(ctx, len(idx), workers, parallelCutoff, func(lo, hi int) {
		dl.DecisionValues(pool.X, idx[lo:hi], vals[lo:hi])
		for j := lo; j < hi; j++ {
			pred[j] = vals[j] > th
		}
	}); err != nil {
		return nil, nil, err
	}
	return vals, pred, nil
}

func bothClasses(labels []bool) bool {
	if len(labels) == 0 {
		return false
	}
	first := labels[0]
	for _, l := range labels[1:] {
		if l != first {
			return true
		}
	}
	return false
}
