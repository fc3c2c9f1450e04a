package core

import (
	"math"
	"sort"
	"time"

	"github.com/alem/alem/internal/feature"
	"github.com/alem/alem/internal/interp"
	"github.com/alem/alem/internal/rules"
	"github.com/alem/alem/internal/tree"
)

// The built-in informativeness measures, one per paper selector family.
// Each scorer reproduces its pre-refactor selector's computation exactly
// — same arithmetic, same fan-out substrate, same serial pre-draw of
// all randomness — so the compositions in selectors.go are bit-identical
// to the concrete implementations they replaced (pinned by the
// Equivalence tests at worker counts {0,1,2,8}).

// QBCScorer is learner-agnostic query-by-committee disagreement (§4.1):
// B bootstrap resamples of the labeled data train B committee members via
// the factory; a candidate's score is the variance (P/C)(1−P/C) of its
// positive votes (or vote entropy — same ranking for binary committees).
// All bootstrap draws and factory seeds come out of ctx.Rand serially
// before the committee fan-out, in the exact order the serial loop
// consumed them.
type QBCScorer struct {
	B          int
	Factory    Factory
	UseEntropy bool
}

// Name implements Scorer.
func (q QBCScorer) Name() string { return "qbc-variance" }

// Score implements Scorer. Committee creation is timed into
// ctx.CommitteeCreate (it dominates QBC latency, Fig. 10a-b).
func (q QBCScorer) Score(ctx *SelectContext, _ int) (*ScoredSet, error) {
	if q.B <= 0 || q.Factory == nil || len(ctx.LabeledIdx) == 0 {
		return nil, errNotApplicable
	}
	start := time.Now()
	if ctx.Cancelled() {
		ctx.CommitteeCreate = time.Since(start)
		return nil, ctx.Ctx.Err()
	}
	n := len(ctx.LabeledIdx)
	resamples := make([][]int, q.B)
	seeds := make([]int64, q.B)
	for b := 0; b < q.B; b++ {
		draws := make([]int, n)
		for i := range draws {
			draws[i] = ctx.Rand.Intn(n)
		}
		resamples[b] = draws
		seeds[b] = ctx.Rand.Int63()
	}
	committee := make([]Learner, q.B)
	if err := parallelFor(ctx.Ctx, q.B, ctx.Workers, 2, func(b int) {
		X := make([]feature.Vector, 0, n)
		y := make([]bool, 0, n)
		for _, j := range resamples[b] {
			X = append(X, ctx.Pool.X[ctx.LabeledIdx[j]])
			y = append(y, ctx.Labels[j])
		}
		m := q.Factory(seeds[b])
		m.Train(X, y)
		committee[b] = m
	}); err != nil {
		ctx.CommitteeCreate = time.Since(start)
		return nil, err
	}
	ctx.CommitteeCreate = time.Since(start)

	// Each member scores the whole block in turn; pos counts its
	// positive votes per slot.
	variance := make([]float64, len(ctx.Unlabeled))
	if err := parallelForRows(ctx.Ctx, ctx.Pool.Len(), ctx.Unlabeled, ctx.Workers, func(slots, rows []int) {
		var pos [cancelCheckStride]int
		for _, m := range committee {
			countPositive(m, ctx.Pool.X, rows, pos[:])
		}
		for k, j := range slots {
			p := float64(pos[k]) / float64(q.B)
			if q.UseEntropy {
				variance[j] = binaryEntropy(p)
			} else {
				variance[j] = p * (1 - p)
			}
		}
	}); err != nil {
		return nil, err
	}
	return &ScoredSet{Candidates: ctx.Unlabeled, Scores: variance}, nil
}

// MarginScorer is learner-aware ambiguity for margin classifiers (§4.2):
// score is the NEGATED |margin|, so the smallest-margin (most ambiguous)
// candidates score highest under the uniform higher-is-better contract.
// Requires a MarginLearner.
type MarginScorer struct{}

// Name implements Scorer.
func (MarginScorer) Name() string { return "margin" }

// Score implements Scorer.
func (MarginScorer) Score(ctx *SelectContext, _ int) (*ScoredSet, error) {
	ml, ok := ctx.Learner.(MarginLearner)
	if !ok {
		return nil, errNotApplicable
	}
	return marginScores(ctx, ml)
}

// marginScores is the shared |margin| sweep (negated into scores).
// BlockedMarginScorer reuses it for its everything-pruned fallback.
func marginScores(ctx *SelectContext, ml MarginLearner) (*ScoredSet, error) {
	scores, err := unlabeledAbsMargins(ctx, ml)
	if err != nil {
		return nil, err
	}
	for j, m := range scores {
		scores[j] = -m
	}
	return &ScoredSet{Candidates: ctx.Unlabeled, Scores: scores}, nil
}

// unlabeledAbsMargins returns |Margin| of every unlabeled candidate,
// aligned with ctx.Unlabeled: read from this step's pool values when
// they are ml's, and otherwise swept in pool-row blocks (see
// absMargins). Both paths fan out on the standard substrate and poll
// cancellation once per block.
func unlabeledAbsMargins(ctx *SelectContext, ml MarginLearner) ([]float64, error) {
	margins := make([]float64, len(ctx.Unlabeled))
	if vals := ctx.valuesOf(ml); vals != nil {
		if err := parallelFor(ctx.Ctx, len(ctx.Unlabeled), ctx.Workers, parallelCutoff, func(j int) {
			margins[j] = math.Abs(vals[ctx.Unlabeled[j]])
		}); err != nil {
			return nil, err
		}
		return margins, nil
	}
	if err := parallelForRows(ctx.Ctx, ctx.Pool.Len(), ctx.Unlabeled, ctx.Workers, func(slots, rows []int) {
		var block [cancelCheckStride]float64
		absMargins(ml, ctx.Pool.X, rows, block[:])
		for k, j := range slots {
			margins[j] = block[k]
		}
	}); err != nil {
		return nil, err
	}
	return margins, nil
}

// BlockedMarginScorer is MarginScorer with the §5.1 blocking-dimension
// optimization for linear classifiers: a candidate whose TopK
// largest-|weight| dimensions are all zero has margin ≈ |bias| —
// unambiguous — so it is pruned from the candidate set without paying
// the dot product. Requires a WeightedLinear learner; with an empty
// weight vector it delegates to uniform random selection, and when
// pruning removes everything it falls back to the full margin sweep.
type BlockedMarginScorer struct {
	TopK int
}

// Name implements Scorer.
func (BlockedMarginScorer) Name() string { return "margin-blocked" }

// Score implements Scorer.
func (bm BlockedMarginScorer) Score(ctx *SelectContext, _ int) (*ScoredSet, error) {
	wl, ok := ctx.Learner.(WeightedLinear)
	if !ok {
		return nil, errNotApplicable
	}
	w := wl.Weights()
	if len(w) == 0 {
		return nil, errDelegate{to: Random{}}
	}
	topK := bm.TopK
	if topK <= 0 || topK > len(w) {
		topK = len(w)
	}
	dims := topWeightDims(w, topK)

	// Score in parallel: an example whose blocking dimensions are all
	// zero records a sentinel instead of paying the dot product; a
	// survivor's margin is read from this step's pool values when they
	// are wl's. The survivors are collected serially in candidate order
	// afterwards, so the result is identical at every worker count.
	vals := ctx.valuesOf(wl)
	margins := make([]float64, len(ctx.Unlabeled))
	if err := parallelForRows(ctx.Ctx, ctx.Pool.Len(), ctx.Unlabeled, ctx.Workers, func(slots, rows []int) {
		for k, j := range slots {
			x := ctx.Pool.X[rows[k]]
			margins[j] = blockedSentinel // margin == |bias|: pruned without the dot product
			for _, d := range dims {
				if x[d] != 0 {
					if vals != nil {
						margins[j] = math.Abs(vals[rows[k]])
					} else {
						margins[j] = math.Abs(wl.Margin(x))
					}
					break
				}
			}
		}
	}); err != nil {
		return nil, err
	}
	var cands []int
	var scores []float64
	for j, i := range ctx.Unlabeled {
		if margins[j] != blockedSentinel {
			cands = append(cands, i)
			scores = append(scores, -margins[j])
		}
	}
	if len(cands) == 0 {
		// Degenerate: everything pruned; fall back to the full sweep.
		return marginScores(ctx, wl)
	}
	return &ScoredSet{Candidates: cands, Scores: scores}, nil
}

// blockedSentinel marks an example pruned by the blocking dimensions.
// Margins are non-negative, so a negative value can never collide.
const blockedSentinel = -1.0

// topWeightDims returns the indices of the k largest |w| entries.
func topWeightDims(w []float64, k int) []int {
	idx := make([]int, len(w))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return math.Abs(w[idx[a]]) > math.Abs(w[idx[b]])
	})
	return idx[:k]
}

// VoteScorer is learner-aware QBC disagreement for committee learners
// (§4.1.1): the learner's own ensemble (a random forest's trees) votes,
// and the score is the (P/C)(1−P/C) variance — selection pays only the
// example-scoring cost since the committee was built during training.
// Requires a VoteLearner.
type VoteScorer struct{}

// Name implements Scorer.
func (VoteScorer) Name() string { return "vote-variance" }

// Score implements Scorer.
func (VoteScorer) Score(ctx *SelectContext, _ int) (*ScoredSet, error) {
	vl, ok := ctx.Learner.(VoteLearner)
	if !ok {
		return nil, errNotApplicable
	}
	variance, err := voteVariance(ctx, vl, ctx.Unlabeled)
	if err != nil {
		return nil, err
	}
	return &ScoredSet{Candidates: ctx.Unlabeled, Scores: variance}, nil
}

// BlockedVoteScorer is VoteScorer behind the §5 mined-DNF blocking
// sketch for tree learners: a high-recall blocking DNF mined from the
// forest's own trees (the Corleone idea) prunes uncovered candidates
// before any tree votes. Pruning only sticks when at least k candidates
// survive — the ambiguous region must stay selectable. A VoteLearner
// that is not a *tree.Forest gets the plain unblocked scoring.
type BlockedVoteScorer struct {
	// TargetRecall is the labeled-positive coverage the mined DNF must
	// reach (default 0.95).
	TargetRecall float64
}

// Name implements Scorer.
func (BlockedVoteScorer) Name() string { return "vote-variance-blocked" }

// Score implements Scorer.
func (bf BlockedVoteScorer) Score(ctx *SelectContext, k int) (*ScoredSet, error) {
	vl, ok := ctx.Learner.(VoteLearner)
	if !ok {
		return nil, errNotApplicable
	}
	candidates := ctx.Unlabeled
	if forest, ok := ctx.Learner.(*tree.Forest); ok {
		target := bf.TargetRecall
		if target <= 0 {
			target = 0.95
		}
		// Mine the blocking DNF on the labeled data.
		X := make([][]float64, len(ctx.LabeledIdx))
		for j, i := range ctx.LabeledIdx {
			X[j] = ctx.Pool.X[i]
		}
		dnf := interp.MineBlockingDNF(forest, X, ctx.Labels, target)
		if len(dnf) > 0 {
			pruned := make([]int, 0, len(ctx.Unlabeled))
			for _, i := range ctx.Unlabeled {
				if interp.EvalDNF(dnf, ctx.Pool.X[i]) {
					pruned = append(pruned, i)
				}
			}
			if len(pruned) >= k {
				candidates = pruned
			}
		}
	}
	variance, err := voteVariance(ctx, vl, candidates)
	if err != nil {
		return nil, err
	}
	return &ScoredSet{Candidates: candidates, Scores: variance}, nil
}

// voteVariance computes the (P/C)(1−P/C) disagreement of a vote committee
// over the candidate examples, fanning out across ctx.Workers. When this
// step's pool values are vl's, each is its vote fraction P/C (see
// DecisionLearner) and is read instead of polling the trees again.
func voteVariance(ctx *SelectContext, vl VoteLearner, candidates []int) ([]float64, error) {
	variance := make([]float64, len(candidates))
	if vals := ctx.valuesOf(vl); vals != nil {
		err := parallelFor(ctx.Ctx, len(candidates), ctx.Workers, parallelCutoff, func(j int) {
			p := vals[candidates[j]]
			variance[j] = p * (1 - p)
		})
		return variance, err
	}
	err := parallelForRows(ctx.Ctx, ctx.Pool.Len(), candidates, ctx.Workers, func(slots, rows []int) {
		for k, j := range slots {
			pos, total := vl.Votes(ctx.Pool.X[rows[k]])
			if total == 0 {
				continue
			}
			p := float64(pos) / float64(total)
			variance[j] = p * (1 - p)
		}
	})
	return variance, err
}

// LFPLFNScorer is the rule learner's Likely-False-Positive / Negative
// heuristic (§4.3) as an informativeness measure: candidates are the
// rule-suspicious pairs (DNF-covered with low feature similarity, or
// Rule-Minus-covered with high similarity), ranked by the paper's
// LFP/LFN interleaving; score −r for interleave rank r, so the standard
// deterministic picker reproduces the original batch exactly. Requires
// the rules.Model learner — the Fig. 2 leaf this selector hangs off.
type LFPLFNScorer struct{}

// Name implements Scorer.
func (LFPLFNScorer) Name() string { return "lfp-lfn" }

// Score implements Scorer. Scoring polls the run's cancellation signal
// on the standard stride, so rule-learner runs respond to
// SIGINT/deadlines like every other selector.
func (LFPLFNScorer) Score(ctx *SelectContext, k int) (*ScoredSet, error) {
	m, ok := ctx.Learner.(*rules.Model)
	if !ok {
		return nil, errNotApplicable
	}
	if k <= 0 {
		return nil, errNotApplicable
	}
	rank, ok := m.RankLFPLFN(ctx.Pool.X, ctx.Unlabeled, ctx.Cancelled)
	if !ok {
		if err := ctx.Ctx.Err(); err != nil {
			return nil, err
		}
		return nil, errNotApplicable
	}
	scores := make([]float64, len(rank))
	for r := range rank {
		scores[r] = -float64(r)
	}
	return &ScoredSet{Candidates: rank, Scores: scores}, nil
}

// AmbiguityScorer is the IWAL informativeness measure: margins
// normalized into [0,1] ambiguity, 1 at the decision boundary, 0 at the
// pool's largest margin. Composed with AcceptanceSamplePicker it is the
// simplified importance-weighted selector (Beygelzimer et al., §2);
// composed with a deterministic or diversity picker it is a normalized
// margin measure. Requires a MarginLearner.
type AmbiguityScorer struct{}

// Name implements Scorer.
func (AmbiguityScorer) Name() string { return "ambiguity" }

// Score implements Scorer.
func (AmbiguityScorer) Score(ctx *SelectContext, _ int) (*ScoredSet, error) {
	ml, ok := ctx.Learner.(MarginLearner)
	if !ok {
		return nil, errNotApplicable
	}
	margins, err := unlabeledAbsMargins(ctx, ml)
	if err != nil {
		return nil, err
	}
	maxM := 0.0
	for _, m := range margins {
		if m > maxM {
			maxM = m
		}
	}
	if maxM == 0 {
		maxM = 1
	}
	for j := range margins {
		margins[j] = 1 - margins[j]/maxM
	}
	return &ScoredSet{Candidates: ctx.Unlabeled, Scores: margins}, nil
}

// UniformScorer assigns every candidate the same zero score — the
// measure half of uniform random selection (supervised baseline). It
// draws nothing from the RNG; the randomness, if any, belongs to the
// picker.
type UniformScorer struct{}

// Name implements Scorer.
func (UniformScorer) Name() string { return "uniform" }

// Score implements Scorer.
func (UniformScorer) Score(ctx *SelectContext, _ int) (*ScoredSet, error) {
	return &ScoredSet{Candidates: ctx.Unlabeled, Scores: make([]float64, len(ctx.Unlabeled))}, nil
}
