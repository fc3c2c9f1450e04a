package core

import (
	"context"
	"math/rand"
	"time"
)

// SelectContext is everything a selector may consult: the trained model,
// the pool, the current labeled/unlabeled split, and an RNG for
// tie-breaking. Selectors write their latency breakdown into it, matching
// the §3 latency metric (committee creation vs example scoring).
type SelectContext struct {
	// Ctx, when non-nil, carries the run's cancellation signal. Slow
	// selectors (QBC's committee training, large scoring sweeps) should
	// poll Cancelled and bail out with a nil batch; the engine discards
	// the batch of a cancelled iteration, so a partial result is never
	// recorded.
	Ctx context.Context

	Learner    Learner
	Pool       *Pool
	LabeledIdx []int
	Labels     []bool // aligned with LabeledIdx
	Unlabeled  []int
	Rand       *rand.Rand

	// Workers caps the goroutines a selector may fan out for committee
	// training and pool scoring; <= 0 means one per CPU, 1 forces the
	// serial path. The engine fills it from Config.Workers. Every worker
	// count produces bit-identical batches and RNG draw counts: selectors
	// pre-draw all randomness from Rand before fanning out and only merge
	// deterministic per-example results afterwards.
	Workers int

	// Filled by Select.
	CommitteeCreate time.Duration
	Score           time.Duration

	// values, when set, are this step's evaluation values (see
	// valuesOf).
	values poolValues
}

// poolValues are one learner's decision values of every pool row,
// indexed by row, as a Progressive session's evaluation computed them.
type poolValues struct {
	learner Learner
	vals    []float64
}

// valuesOf returns l's decision value of every pool row (see
// DecisionLearner), indexed by row, when this step's evaluation computed
// them for l, and nil otherwise: under HeldOut, in ensembles, in direct
// Select calls, for learners without DecisionValues, and for any learner
// but the one evaluated. Scorers that find them read them instead of
// sweeping the pool again; the values are valid until the learner is
// retrained, which no selector does.
func (ctx *SelectContext) valuesOf(l Learner) []float64 {
	if ctx.values.vals == nil || ctx.values.learner != l {
		return nil
	}
	return ctx.values.vals
}

// Cancelled reports whether the run's context has been cancelled. It is
// nil-safe so selectors work unchanged when invoked without an engine
// (direct Select calls in tests pass no context).
func (ctx *SelectContext) Cancelled() bool {
	return ctx.Ctx != nil && ctx.Ctx.Err() != nil
}

// Selector is the example-selector component of Fig. 2. Select returns up
// to k pool indices drawn from ctx.Unlabeled; an empty result signals the
// selector has no informative examples left (rule learners terminate on
// this).
//
// Every built-in selector is a Scorer×Picker composition (strategy.go)
// behind its exported type; the concrete types below are kept for
// API stability and for carrying their strategy parameters. Each exposes
// its decomposition via a Composition method, so callers can re-pair its
// informativeness measure with a different batch picker.
type Selector interface {
	Name() string
	Select(ctx *SelectContext, k int) []int
}

// Random selects a uniformly random batch. It is the example selector of
// supervised learning in the paper's active-vs-supervised comparisons
// (Figs. 16, 17): random selection plus retraining equals supervised
// learning on a growing random sample.
type Random struct{}

// Name implements Selector.
func (Random) Name() string { return "random" }

// Composition returns the selector's Scorer×Picker decomposition.
func (r Random) Composition() ComposedSelector {
	return ComposedSelector{ID: r.Name(), Scorer: UniformScorer{}, Picker: RandomPicker{}}
}

// Select implements Selector.
func (r Random) Select(ctx *SelectContext, k int) []int {
	return r.Composition().Select(ctx, k)
}

// QBC is learner-agnostic query-by-committee (§4.1, Mozafari et al.): B
// bootstrap resamples of the labeled data train B committee members via
// the factory; disagreement over an unlabeled example is the variance
// (P/C)(1−P/C) of its positive votes, and the highest-variance examples
// are selected (ties broken randomly).
type QBC struct {
	B       int
	Factory Factory
}

// Name implements Selector.
func (q QBC) Name() string { return "qbc" }

// Composition returns the selector's Scorer×Picker decomposition.
func (q QBC) Composition() ComposedSelector {
	return ComposedSelector{
		ID:     q.Name(),
		Scorer: QBCScorer{B: q.B, Factory: q.Factory},
		Picker: ShuffledTopPicker{},
	}
}

// Select implements Selector.
func (q QBC) Select(ctx *SelectContext, k int) []int {
	return q.Composition().Select(ctx, k)
}

// Margin is learner-aware margin-based selection (§4.2): the unlabeled
// examples with the smallest |margin| — closest to the decision boundary —
// are the most ambiguous. Requires a MarginLearner; ties are broken by
// pool index, making margin more deterministic than QBC, as §4.2.1 notes.
type Margin struct{}

// Name implements Selector.
func (Margin) Name() string { return "margin" }

// Composition returns the selector's Scorer×Picker decomposition.
func (m Margin) Composition() ComposedSelector {
	return ComposedSelector{ID: m.Name(), Scorer: MarginScorer{}, Picker: TopPicker{}}
}

// Select implements Selector.
func (m Margin) Select(ctx *SelectContext, k int) []int {
	return m.Composition().Select(ctx, k)
}

// BlockedMargin is Margin with the §5.1 blocking-dimension optimization
// for linear classifiers: the TopK dimensions with the largest |weight|
// are the blocking dimensions; an unlabeled example whose blocking
// dimensions are all zero has margin ≈ |bias| — unambiguous — so its full
// dot product is skipped entirely. TopK = Dim degenerates to plain
// margin (the paper's "margin(188Dim)" baseline).
type BlockedMargin struct {
	TopK int
}

// Name implements Selector.
func (BlockedMargin) Name() string { return "margin-blocked" }

// Composition returns the selector's Scorer×Picker decomposition.
func (bm BlockedMargin) Composition() ComposedSelector {
	return ComposedSelector{
		ID:     bm.Name(),
		Scorer: BlockedMarginScorer{TopK: bm.TopK},
		Picker: TopPicker{},
	}
}

// Select implements Selector.
func (bm BlockedMargin) Select(ctx *SelectContext, k int) []int {
	return bm.Composition().Select(ctx, k)
}

// ForestQBC is learner-aware QBC for tree ensembles (§4.1.1): the random
// forest's own trees are the committee — built during training, so
// selection pays only the example-scoring cost. Variance is the same
// (P/C)(1−P/C) disagreement measure.
type ForestQBC struct{}

// Name implements Selector.
func (ForestQBC) Name() string { return "forest-qbc" }

// Composition returns the selector's Scorer×Picker decomposition.
func (f ForestQBC) Composition() ComposedSelector {
	return ComposedSelector{ID: f.Name(), Scorer: VoteScorer{}, Picker: ShuffledTopPicker{}}
}

// Select implements Selector.
func (f ForestQBC) Select(ctx *SelectContext, k int) []int {
	return f.Composition().Select(ctx, k)
}

// LFPLFN adapts the rule learner's Likely-False-Positive / Negative
// heuristic (§4.3) to the Selector interface. It is compatible only with
// rules.Model — the framework's way of recording that this selector has
// no other children in the Fig. 2 hierarchy. Composing it with any other
// learner is a configuration error: its scorer's CompatibleWith reports
// it as a typed *IncompatibleError, and session construction rejects it
// before the seed phase spends any label budget.
type LFPLFN struct{}

// Name implements Selector.
func (LFPLFN) Name() string { return "lfp-lfn" }

// Composition returns the selector's Scorer×Picker decomposition: the
// LFP/LFN interleave rank as the informativeness measure, picked
// deterministically (the interleave is prefix-stable, so top-k of the
// full ranking is exactly the §4.3 batch).
func (l LFPLFN) Composition() ComposedSelector {
	return ComposedSelector{ID: l.Name(), Scorer: LFPLFNScorer{}, Picker: TopPicker{}}
}

// Select implements Selector. Scoring polls the run's cancellation
// signal on the standard stride, so rule-learner runs respond to
// SIGINT/deadlines like every other selector.
func (l LFPLFN) Select(ctx *SelectContext, k int) []int {
	return l.Composition().Select(ctx, k)
}
