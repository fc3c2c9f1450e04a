package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"github.com/alem/alem/internal/feature"
	"github.com/alem/alem/internal/interp"
	"github.com/alem/alem/internal/rules"
	"github.com/alem/alem/internal/tree"
)

// This file pins the Scorer×Picker refactor against the PRE-REFACTOR
// selector implementations, frozen verbatim below as legacy* types. For
// every paper selector, at worker counts {0,1,2,8} and pool sizes on
// both sides of the parallel cutoff, the composition behind the exported
// type must produce a bit-identical batch AND leave the counted RNG at
// the identical draw position. The RNG position is part of the contract:
// Snapshot/Restore replays a run by draw count, so a composition that
// picked the same batch with different draws would still corrupt
// resumed runs.
//
// The frozen code is intentionally copy-pasted, not shared: sharing
// would make the test tautological. Do not "clean it up" to call the
// current implementations.

// legacyRandom is the pre-refactor Random.Select.
type legacyRandom struct{}

func (legacyRandom) Name() string { return "legacy-random" }

func (legacyRandom) Select(ctx *SelectContext, k int) []int {
	start := time.Now()
	defer func() { ctx.Score = time.Since(start) }()
	n := len(ctx.Unlabeled)
	if n <= k {
		return append([]int(nil), ctx.Unlabeled...)
	}
	perm := ctx.Rand.Perm(n)[:k]
	out := make([]int, 0, k)
	for _, i := range perm {
		out = append(out, ctx.Unlabeled[i])
	}
	return out
}

// legacyQBC is the pre-refactor QBC.Select.
type legacyQBC struct {
	B          int
	Factory    Factory
	UseEntropy bool
}

func (legacyQBC) Name() string { return "legacy-qbc" }

func (q legacyQBC) Select(ctx *SelectContext, k int) []int {
	if q.B <= 0 || q.Factory == nil || len(ctx.LabeledIdx) == 0 {
		return nil
	}
	start := time.Now()
	if ctx.Cancelled() {
		ctx.CommitteeCreate = time.Since(start)
		return nil
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
		return nil
	}
	ctx.CommitteeCreate = time.Since(start)

	start = time.Now()
	variance := make([]float64, len(ctx.Unlabeled))
	if err := parallelFor(ctx.Ctx, len(ctx.Unlabeled), ctx.Workers, parallelCutoff, func(j int) {
		pos := 0
		for _, m := range committee {
			if m.Predict(ctx.Pool.X[ctx.Unlabeled[j]]) {
				pos++
			}
		}
		p := float64(pos) / float64(q.B)
		if q.UseEntropy {
			variance[j] = legacyBinaryEntropy(p)
		} else {
			variance[j] = p * (1 - p)
		}
	}); err != nil {
		ctx.Score = time.Since(start)
		return nil
	}
	picked := legacyVariancePick(ctx.Rand, ctx.Unlabeled, variance, k)
	ctx.Score = time.Since(start)
	return picked
}

func legacyBinaryEntropy(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
}

func legacyVariancePick(r *rand.Rand, unlabeled []int, variance []float64, k int) []int {
	order := r.Perm(len(unlabeled))
	sort.SliceStable(order, func(a, b int) bool {
		return variance[order[a]] > variance[order[b]]
	})
	if k > len(order) {
		k = len(order)
	}
	out := make([]int, 0, k)
	for _, oi := range order[:k] {
		out = append(out, unlabeled[oi])
	}
	return out
}

type legacyScored struct {
	idx int
	m   float64
}

func legacySmallestMargins(s []legacyScored, k int) []int {
	sort.Slice(s, func(a, b int) bool {
		if s[a].m != s[b].m {
			return s[a].m < s[b].m
		}
		return s[a].idx < s[b].idx
	})
	if k > len(s) {
		k = len(s)
	}
	out := make([]int, 0, k)
	for _, x := range s[:k] {
		out = append(out, x.idx)
	}
	return out
}

// legacyMargin is the pre-refactor Margin.Select.
type legacyMargin struct{}

func (legacyMargin) Name() string { return "legacy-margin" }

func (legacyMargin) Select(ctx *SelectContext, k int) []int {
	ml, ok := ctx.Learner.(MarginLearner)
	if !ok {
		return nil
	}
	start := time.Now()
	defer func() { ctx.Score = time.Since(start) }()
	s := make([]legacyScored, len(ctx.Unlabeled))
	if err := parallelFor(ctx.Ctx, len(ctx.Unlabeled), ctx.Workers, parallelCutoff, func(j int) {
		i := ctx.Unlabeled[j]
		s[j] = legacyScored{i, math.Abs(ml.Margin(ctx.Pool.X[i]))}
	}); err != nil {
		return nil
	}
	return legacySmallestMargins(s, k)
}

// legacyBlockedMargin is the pre-refactor BlockedMargin.Select.
type legacyBlockedMargin struct {
	TopK int
}

func (legacyBlockedMargin) Name() string { return "legacy-margin-blocked" }

func (bm legacyBlockedMargin) Select(ctx *SelectContext, k int) []int {
	wl, ok := ctx.Learner.(WeightedLinear)
	if !ok {
		return nil
	}
	start := time.Now()
	defer func() { ctx.Score = time.Since(start) }()
	w := wl.Weights()
	if len(w) == 0 {
		return legacyRandom{}.Select(ctx, k)
	}
	topK := bm.TopK
	if topK <= 0 || topK > len(w) {
		topK = len(w)
	}
	dims := legacyTopWeightDims(w, topK)

	margins := make([]float64, len(ctx.Unlabeled))
	if err := parallelFor(ctx.Ctx, len(ctx.Unlabeled), ctx.Workers, parallelCutoff, func(j int) {
		x := ctx.Pool.X[ctx.Unlabeled[j]]
		for _, d := range dims {
			if x[d] != 0 {
				margins[j] = math.Abs(wl.Margin(x))
				return
			}
		}
		margins[j] = blockedSentinel
	}); err != nil {
		return nil
	}
	var s []legacyScored
	for j, i := range ctx.Unlabeled {
		if margins[j] != blockedSentinel {
			s = append(s, legacyScored{i, margins[j]})
		}
	}
	if len(s) == 0 {
		return legacyMargin{}.Select(ctx, k)
	}
	return legacySmallestMargins(s, k)
}

func legacyTopWeightDims(w []float64, k int) []int {
	idx := make([]int, len(w))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return math.Abs(w[idx[a]]) > math.Abs(w[idx[b]])
	})
	return idx[:k]
}

func legacyVoteVariance(ctx *SelectContext, vl VoteLearner, candidates []int) ([]float64, error) {
	variance := make([]float64, len(candidates))
	err := parallelFor(ctx.Ctx, len(candidates), ctx.Workers, parallelCutoff, func(j int) {
		pos, total := vl.Votes(ctx.Pool.X[candidates[j]])
		if total == 0 {
			return
		}
		p := float64(pos) / float64(total)
		variance[j] = p * (1 - p)
	})
	return variance, err
}

// legacyForestQBC is the pre-refactor ForestQBC.Select.
type legacyForestQBC struct{}

func (legacyForestQBC) Name() string { return "legacy-forest-qbc" }

func (legacyForestQBC) Select(ctx *SelectContext, k int) []int {
	vl, ok := ctx.Learner.(VoteLearner)
	if !ok {
		return nil
	}
	start := time.Now()
	defer func() { ctx.Score = time.Since(start) }()
	variance, err := legacyVoteVariance(ctx, vl, ctx.Unlabeled)
	if err != nil {
		return nil
	}
	return legacyVariancePick(ctx.Rand, ctx.Unlabeled, variance, k)
}

// legacyBlockedForestQBC is the pre-refactor BlockedForestQBC.Select.
type legacyBlockedForestQBC struct {
	TargetRecall float64
}

func (legacyBlockedForestQBC) Name() string { return "legacy-forest-qbc-blocked" }

func (bf legacyBlockedForestQBC) Select(ctx *SelectContext, k int) []int {
	vl, ok := ctx.Learner.(VoteLearner)
	if !ok {
		return nil
	}
	forest, ok := ctx.Learner.(*tree.Forest)
	if !ok {
		return legacyForestQBC{}.Select(ctx, k)
	}
	target := bf.TargetRecall
	if target <= 0 {
		target = 0.95
	}
	start := time.Now()
	defer func() { ctx.Score = time.Since(start) }()

	X := make([][]float64, len(ctx.LabeledIdx))
	for j, i := range ctx.LabeledIdx {
		X[j] = ctx.Pool.X[i]
	}
	dnf := interp.MineBlockingDNF(forest, X, ctx.Labels, target)

	candidates := ctx.Unlabeled
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
	variance, err := legacyVoteVariance(ctx, vl, candidates)
	if err != nil {
		return nil
	}
	return legacyVariancePick(ctx.Rand, candidates, variance, k)
}

// legacyIWAL is the pre-refactor IWAL.Select.
type legacyIWAL struct {
	PMin float64
}

func (legacyIWAL) Name() string { return "legacy-iwal" }

func (iw legacyIWAL) Select(ctx *SelectContext, k int) []int {
	ml, ok := ctx.Learner.(MarginLearner)
	if !ok {
		return nil
	}
	pmin := iw.PMin
	if pmin <= 0 {
		pmin = 0.1
	}
	start := time.Now()
	defer func() { ctx.Score = time.Since(start) }()

	margins := make([]float64, len(ctx.Unlabeled))
	if err := parallelFor(ctx.Ctx, len(ctx.Unlabeled), ctx.Workers, parallelCutoff, func(j int) {
		margins[j] = math.Abs(ml.Margin(ctx.Pool.X[ctx.Unlabeled[j]]))
	}); err != nil {
		return nil
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
	out := make([]int, 0, k)
	for n, j := range ctx.Rand.Perm(len(ctx.Unlabeled)) {
		if len(out) == k {
			break
		}
		if n%cancelCheckStride == 0 && ctx.Cancelled() {
			return nil
		}
		ambiguity := 1 - margins[j]/maxM
		p := pmin + (1-pmin)*ambiguity
		if ctx.Rand.Float64() < p {
			out = append(out, ctx.Unlabeled[j])
		}
	}
	return out
}

// legacyLFPLFN is the pre-refactor LFPLFN.Select, including the
// pre-refactor rules.Model.SelectLFPLFNCancel body (frozen here because
// the rules method itself was re-based on RankLFPLFN), rebuilt on the
// exported rules.Model surface (Predict, Rules).
type legacyLFPLFN struct{}

func (legacyLFPLFN) Name() string { return "legacy-lfp-lfn" }

func (legacyLFPLFN) Select(ctx *SelectContext, k int) []int {
	m, ok := ctx.Learner.(*rules.Model)
	if !ok {
		return nil
	}
	start := time.Now()
	defer func() { ctx.Score = time.Since(start) }()
	return legacySelectLFPLFN(m, ctx.Pool.X, ctx.Unlabeled, k, ctx.Cancelled)
}

func legacySelectLFPLFN(m *rules.Model, X []feature.Vector, unlabeled []int, k int, cancelled func() bool) []int {
	if len(m.Rules()) == 0 || k <= 0 {
		return nil
	}
	simScore := func(x feature.Vector) float64 {
		if len(x) == 0 {
			return 0
		}
		s := 0.0
		for _, v := range x {
			if v >= 0.5 {
				s++
			}
		}
		return s / float64(len(x))
	}
	coveredByRuleMinus := func(x feature.Vector) bool {
		for _, r := range m.Rules() {
			if len(r.Atoms) < 2 {
				continue
			}
			for drop := range r.Atoms {
				ok := true
				for j, a := range r.Atoms {
					if j == drop {
						continue
					}
					if x[a] < 0.5 {
						ok = false
						break
					}
				}
				if ok {
					return true
				}
			}
		}
		return false
	}
	sortScored := func(s []legacyScored, asc bool) {
		sort.Slice(s, func(i, j int) bool {
			if s[i].m != s[j].m {
				if asc {
					return s[i].m < s[j].m
				}
				return s[i].m > s[j].m
			}
			return s[i].idx < s[j].idx
		})
	}
	var lfps, lfns []legacyScored
	for n, i := range unlabeled {
		if cancelled != nil && n%cancelCheckStride == 0 && cancelled() {
			return nil
		}
		x := X[i]
		if m.Predict(x) {
			lfps = append(lfps, legacyScored{i, simScore(x)})
			continue
		}
		if coveredByRuleMinus(x) {
			lfns = append(lfns, legacyScored{i, simScore(x)})
		}
	}
	sortScored(lfps, true)
	sortScored(lfns, false)
	out := make([]int, 0, k)
	for li, fi := 0, 0; len(out) < k && (li < len(lfps) || fi < len(lfns)); {
		if li < len(lfps) {
			out = append(out, lfps[li].idx)
			li++
		}
		if len(out) < k && fi < len(lfns) {
			out = append(out, lfns[fi].idx)
			fi++
		}
	}
	return out
}

// ---- the equivalence assertions ----

// TestCompositionEquivalence is the refactor's acceptance gate: every
// paper selector, expressed as a Scorer×Picker composition behind its
// exported type, must match its frozen pre-refactor implementation —
// same batch, same counted-RNG position — at worker counts {0,1,2,8}
// and pool sizes on both sides of the parallel cutoff. The unlabeled
// counts 131 and 545 are multiples of neither four (the SVM's row
// group) nor cancelCheckStride (the sweep block), so the last block and
// its last row group are partial. Each selector that reads a session's
// pool values runs twice, with the learner's values of every pool row
// in its context and without, against the same legacy batch.
func TestCompositionEquivalence(t *testing.T) {
	for _, size := range []int{parallelCutoff / 2, parallelCutoff/2 + 3, 2*parallelCutoff + 33} {
		st := newSelectorSetup(t, size+60, int64(size)+7)
		svmValues, forestValues := st.valuesOf(t, st.svm), st.valuesOf(t, st.forest)
		cases := []struct {
			name    string
			current Selector
			legacy  Selector
			learner Learner
			values  poolValues // the learner's pool values, for selectors that read them
		}{
			{"random", Random{}, legacyRandom{}, st.svm, poolValues{}},
			{"qbc", QBC{B: 7, Factory: svmFactory}, legacyQBC{B: 7, Factory: svmFactory}, st.svm, poolValues{}},
			{"qbc-b10", QBC{B: 10, Factory: svmFactory}, legacyQBC{B: 10, Factory: svmFactory}, st.svm, poolValues{}},
			{"qbc-entropy", QBC{B: 5, Factory: svmFactory, UseEntropy: true},
				legacyQBC{B: 5, Factory: svmFactory, UseEntropy: true}, st.svm, poolValues{}},
			{"margin", Margin{}, legacyMargin{}, st.svm, svmValues},
			{"margin-blocked", BlockedMargin{TopK: 3}, legacyBlockedMargin{TopK: 3}, st.svm, svmValues},
			{"margin-blocked-alldims", BlockedMargin{}, legacyBlockedMargin{}, st.svm, svmValues},
			{"forest-qbc", ForestQBC{}, legacyForestQBC{}, st.forest, forestValues},
			{"forest-qbc-blocked", BlockedForestQBC{}, legacyBlockedForestQBC{}, st.forest, forestValues},
			{"iwal", IWAL{}, legacyIWAL{}, st.svm, svmValues},
			{"iwal-pmin", IWAL{PMin: 0.3}, legacyIWAL{PMin: 0.3}, st.svm, svmValues},
		}
		for _, tc := range cases {
			runs := []poolValues{{}}
			if tc.values.vals != nil {
				runs = append(runs, tc.values)
			}
			for _, values := range runs {
				name := fmt.Sprintf("%s/size=%d", tc.name, size)
				if values.vals != nil {
					name += "/pool-values"
				}
				t.Run(name, func(t *testing.T) {
					for _, workers := range []int{0, 1, 2, 8} {
						wantBatch, want63, want64 := st.run(tc.legacy, tc.learner, workers, 10, 321)
						gotBatch, got63, got64 := st.runWith(tc.current, tc.learner, values, workers, 10, 321)
						if len(wantBatch) == 0 {
							t.Fatalf("workers=%d: legacy %s selected nothing", workers, tc.legacy.Name())
						}
						assertSameSelection(t, workers, gotBatch, wantBatch, got63, want63, got64, want64)
					}
				})
			}
		}
	}
}

// TestPickersMatchLegacySort pins the bounded top-k pickers to the full
// sorts they replaced: TopPicker against legacySmallestMargins and
// ShuffledTopPicker against legacyVariancePick, on shuffled candidates
// whose scores carry heavy ties, ±Inf, ±0 or one value throughout, for
// batch sizes from 0 past the candidate count. Batches and RNG draw
// counts must be equal.
func TestPickersMatchLegacySort(t *testing.T) {
	negZero := math.Copysign(0, -1)
	special := []float64{math.Inf(1), math.Inf(-1), 0, negZero, 1, -1, math.MaxFloat64, math.SmallestNonzeroFloat64}
	scoreKinds := []struct {
		name string
		gen  func(r *rand.Rand) float64
	}{
		{"continuous", func(r *rand.Rand) float64 { return -r.Float64() }},
		{"ties", func(r *rand.Rand) float64 { return float64(r.Intn(5)) / 4 }},
		{"specials", func(r *rand.Rand) float64 { return special[r.Intn(len(special))] }},
		{"all-equal", func(*rand.Rand) float64 { return negZero }},
	}
	for _, n := range []int{1, 2, 9, 300, 40000} {
		for _, kind := range scoreKinds {
			r := rand.New(rand.NewSource(int64(n) + 17))
			cands := r.Perm(2 * n)[:n] // distinct pool rows, shuffled
			scores := make([]float64, n)
			for j := range scores {
				scores[j] = kind.gen(r)
			}
			set := &ScoredSet{Candidates: cands, Scores: scores}
			for _, k := range []int{0, 1, 10, n - 1, n, n + 5} {
				t.Run(fmt.Sprintf("n=%d/%s/k=%d", n, kind.name, k), func(t *testing.T) {
					s := make([]legacyScored, n)
					for j, i := range cands {
						s[j] = legacyScored{i, -scores[j]}
					}
					want := legacySmallestMargins(s, k)
					got := TopPicker{}.Pick(&SelectContext{}, set, k)
					assertSameSelection(t, 0, got, want, 0, 0, 0, 0)

					wantSrc, gotSrc := newCountingSource(int64(k)), newCountingSource(int64(k))
					want = legacyVariancePick(rand.New(wantSrc), cands, scores, k)
					got = ShuffledTopPicker{}.Pick(&SelectContext{Rand: rand.New(gotSrc)}, set, k)
					assertSameSelection(t, 0, got, want, gotSrc.n63, wantSrc.n63, gotSrc.n64, wantSrc.n64)
				})
			}
		}
	}
}

// TestCompositionEquivalenceLFPLFN covers the rule learner separately:
// it needs a Boolean pool and a trained DNF. The composition ranks the
// FULL interleave and top-k's it; the frozen legacy caps at k inside the
// interleave — prefix stability makes them identical for every k,
// checked here across batch sizes including ones past the LFP/LFN
// supply.
func TestCompositionEquivalenceLFPLFN(t *testing.T) {
	X, truth := boolVectors(420, 15)
	pool := NewPoolFromVectors(X, truth)
	ext := feature.NewBoolExtractor([]string{"a", "b", "c"})
	m := rules.NewModel(ext)
	var labeled []int
	var labels []bool
	for i := 0; i < 80; i++ {
		labeled = append(labeled, i)
		labels = append(labels, truth[i])
	}
	var trainX []feature.Vector
	for _, i := range labeled {
		trainX = append(trainX, X[i])
	}
	m.Train(trainX, labels)
	if len(m.Rules()) == 0 {
		t.Fatal("rule model learned no rules; pool generator broken")
	}
	var unlabeled []int
	for i := 80; i < pool.Len(); i++ {
		unlabeled = append(unlabeled, i)
	}
	st := &selectorSetup{pool: pool, labeled: labeled, labels: labels, unlabel: unlabeled}
	for _, k := range []int{1, 7, 10, 1000} {
		for _, workers := range []int{0, 1, 2, 8} {
			wantBatch, want63, want64 := st.run(legacyLFPLFN{}, m, workers, k, 99)
			gotBatch, got63, got64 := st.run(LFPLFN{}, m, workers, k, 99)
			if len(wantBatch) == 0 {
				t.Fatalf("k=%d: legacy LFP/LFN selected nothing", k)
			}
			assertSameSelection(t, workers, gotBatch, wantBatch, got63, want63, got64, want64)
		}
	}
}

// boolVectors generates the Boolean pool shape the rule learner trains
// on: one strongly informative atom plus noise, giving the learned DNF
// both LFPs and rule-minus LFNs to rank.
func boolVectors(n int, seed int64) ([]feature.Vector, []bool) {
	r := rand.New(rand.NewSource(seed))
	var X []feature.Vector
	var truth []bool
	for i := 0; i < n; i++ {
		match := r.Float64() < 0.3
		v := make(feature.Vector, 12)
		for j := range v {
			if r.Float64() < 0.2 {
				v[j] = 1
			}
		}
		if match {
			v[0] = 1
			if r.Float64() < 0.8 {
				v[1] = 1
			}
		} else {
			v[0] = 0
		}
		X = append(X, v)
		truth = append(truth, match)
	}
	return X, truth
}

func assertSameSelection(t *testing.T, workers int, gotBatch, wantBatch []int, got63, want63, got64, want64 uint64) {
	t.Helper()
	if got63 != want63 || got64 != want64 {
		t.Fatalf("workers=%d: RNG draws (%d,%d) differ from legacy (%d,%d)",
			workers, got63, got64, want63, want64)
	}
	if len(gotBatch) != len(wantBatch) {
		t.Fatalf("workers=%d: batch size %d vs legacy %d", workers, len(gotBatch), len(wantBatch))
	}
	for j := range gotBatch {
		if gotBatch[j] != wantBatch[j] {
			t.Fatalf("workers=%d: batch[%d] = %d, legacy picked %d",
				workers, j, gotBatch[j], wantBatch[j])
		}
	}
}
