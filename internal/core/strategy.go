package core

import (
	"errors"
	"fmt"
	"time"
)

// This file is the composable selection-strategy framework: the paper's
// fixed selector set decomposed, modAL-style, into two orthogonal pieces —
// an informativeness measure (Scorer) and a batch query strategy (Picker)
// — glued by ComposedSelector, which satisfies the existing Selector
// interface so the Session engine, ensembles, IWAL sweeps, snapshots and
// Config.Workers are untouched at the call site. Every paper selector
// (QBC, ForestQBC, Margin, BlockedMargin, LFP/LFN, BlockedForestQBC) is a
// composition behind its exported type, pinned bit-identical to the
// pre-refactor implementations by the Equivalence tests; new strategies
// (diversity-aware batch pickers, custom measures) are one piece each,
// not a whole Selector.

// ScoredSet is a Scorer's output: a candidate subset of the unlabeled
// pool together with aligned informativeness scores. Candidates may be a
// strict subset of SelectContext.Unlabeled (blocking scorers prune;
// LFP/LFN keeps only rule-suspicious pairs) and appear in the order the
// scorer ranked or scanned them.
//
// Score contract: HIGHER means MORE informative, uniformly — scorers
// built on "smaller is more ambiguous" quantities (margins) negate, so
// any Picker composes with any Scorer without direction flags.
type ScoredSet struct {
	Candidates []int
	Scores     []float64
}

// Scorer is the informativeness half of a selection strategy: it maps
// the unlabeled pool to per-candidate scores. Scorers run on the
// deterministic par fan-out (parallelFor, parallelForRows) — all shared
// randomness must be drawn from ctx.Rand serially before any fan-out, so
// results and RNG draw positions are bit-identical at every Workers
// count.
//
// k is the batch size the composition will ultimately pick; most scorers
// ignore it, but pruning scorers use it to decide whether a pruned
// candidate set is still large enough to select from (BlockedForestQBC's
// fallback rule).
//
// Errors: a context error aborts the composition with a nil batch (the
// engine discards cancelled iterations); errNotApplicable reports a
// learner or configuration the scorer cannot serve; an errDelegate
// hands the whole selection to another Selector (degenerate-input
// fallbacks, e.g. BlockedMargin with an empty weight vector).
type Scorer interface {
	Name() string
	Score(ctx *SelectContext, k int) (*ScoredSet, error)
}

// Picker is the batch-query half of a selection strategy: given scored
// candidates it chooses up to k of them. Pickers own the selection-time
// randomness (shuffled tie-breaks, acceptance sampling, weighted cluster
// draws) and must draw it from ctx.Rand serially, so a composition's RNG
// position is a pure function of the pool state — the property Snapshot
// /Resume bit-identity rests on. A Picker may consult ctx.Pool.X for
// diversity terms (k-center, cluster sampling); it must not mutate
// anything reachable from ctx.
type Picker interface {
	Name() string
	Pick(ctx *SelectContext, set *ScoredSet, k int) []int
}

// ComposedSelector glues a Scorer to a Picker and satisfies Selector, so
// compositions drop into Session, ensembles and snapshots exactly like
// the concrete paper selectors they generalize.
type ComposedSelector struct {
	// ID overrides Name; empty means "<scorer>×<picker>". The registry
	// sets it so -selector names round-trip through diagnostics.
	ID     string
	Scorer Scorer
	Picker Picker
}

// Name implements Selector.
func (c ComposedSelector) Name() string {
	if c.ID != "" {
		return c.ID
	}
	return c.Scorer.Name() + "×" + c.Picker.Name()
}

// CompatibleWith implements LearnerChecker: it asks the scorer, when
// the scorer declares a learner requirement, and names the composition
// in the error.
func (c ComposedSelector) CompatibleWith(l Learner) error {
	lc, ok := c.Scorer.(LearnerChecker)
	if !ok {
		return nil
	}
	err := lc.CompatibleWith(l)
	var ie *IncompatibleError
	if errors.As(err, &ie) {
		return &IncompatibleError{Selector: c.Name(), Learner: ie.Learner, Needs: ie.Needs}
	}
	return err
}

// Select implements Selector: score, then pick. Timing mirrors the
// concrete selectors — ctx.CommitteeCreate is set by scorers that train
// committees, ctx.Score covers everything else (scoring sweep plus
// picking), matching the §3 latency breakdown.
func (c ComposedSelector) Select(ctx *SelectContext, k int) []int {
	start := time.Now()
	set, err := c.Scorer.Score(ctx, k)
	if err != nil {
		var d errDelegate
		if errors.As(err, &d) {
			return d.to.Select(ctx, k)
		}
		if !errors.Is(err, errNotApplicable) {
			// Cancellation (or any mid-score failure): account the time
			// spent, return no batch; the engine discards the iteration.
			ctx.Score = time.Since(start) - ctx.CommitteeCreate
		}
		return nil
	}
	picked := c.Picker.Pick(ctx, set, k)
	ctx.Score = time.Since(start) - ctx.CommitteeCreate
	return picked
}

// errNotApplicable reports a scorer that cannot serve the current
// learner or configuration (wrong interface, zero committee, no labeled
// data). The composition returns an empty batch, exactly as the concrete
// selectors did; construction-time validation (ValidateSelection) is how
// callers surface it as an error instead.
var errNotApplicable = errors.New("core: scorer not applicable to this learner or configuration")

// errDelegate asks the composition to hand the entire selection to
// another Selector — the escape hatch for degenerate-input fallbacks
// that change both halves of the strategy at once (BlockedMargin with no
// trained weights falls back to uniform random selection).
type errDelegate struct{ to Selector }

func (e errDelegate) Error() string { return "core: delegate selection to " + e.to.Name() }

// ---- construction-time compatibility validation ----

// ErrIncompatibleSelector is the sentinel every selector/learner
// incompatibility error wraps; test with errors.Is. The concrete type
// carrying the details is IncompatibleError.
var ErrIncompatibleSelector = errors.New("core: selector incompatible with learner")

// IncompatibleError reports a selector composed with a learner it cannot
// serve — e.g. LFP/LFN with anything but the rule learner (§4.3). It
// wraps ErrIncompatibleSelector and is returned by ValidateSelection and
// by NewSession/NewBatchSession before any Oracle query is issued, so
// a misconfigured run fails at construction rather than terminating
// mid-run with a silent StopSelectorEmpty.
type IncompatibleError struct {
	// Selector and Learner name the mismatched pair.
	Selector string
	Learner  string
	// Needs describes the capability the selector requires ("a
	// rules.Model learner", "a MarginLearner").
	Needs string
}

// Error implements error.
func (e *IncompatibleError) Error() string {
	return fmt.Sprintf("core: selector %q is incompatible with learner %q: needs %s",
		e.Selector, e.Learner, e.Needs)
}

// Unwrap makes errors.Is(err, ErrIncompatibleSelector) hold.
func (e *IncompatibleError) Unwrap() error { return ErrIncompatibleSelector }

// LearnerChecker is implemented by selectors and scorers that can
// verify, up front, whether a learner satisfies their requirements.
// Every built-in scorer that type-asserts a learner interface checks
// that same assertion, and ComposedSelector asks its scorer. NewSession
// and NewBatchSession consult it right after Config.Validate, so
// incompatibilities fail before the seed phase spends any label budget.
type LearnerChecker interface {
	// CompatibleWith returns nil when l satisfies the requirements, or
	// an *IncompatibleError describing the mismatch.
	CompatibleWith(l Learner) error
}

// ValidateSelection checks a (learner, selector) pair the same way
// session construction does: a selector implementing LearnerChecker is
// asked, and a selector exposing Composition() is checked through its
// composition's scorer; everything else is accepted (the run-time
// contract — an unserved selector returns an empty batch — still
// applies).
func ValidateSelection(l Learner, s Selector) error {
	if c, ok := s.(LearnerChecker); ok {
		return c.CompatibleWith(l)
	}
	if c, ok := s.(interface{ Composition() ComposedSelector }); ok {
		return c.Composition().CompatibleWith(l)
	}
	return nil
}

// requireLearner is a scorer's CompatibleWith verdict: nil when its
// learner assertion held, else an *IncompatibleError saying what the
// scorer needs. A ComposedSelector renames the error after itself.
func requireLearner(ok bool, sc Scorer, l Learner, needs string) error {
	if ok {
		return nil
	}
	name := "<nil>"
	if l != nil {
		name = l.Name()
	}
	return &IncompatibleError{Selector: sc.Name(), Learner: name, Needs: needs}
}
