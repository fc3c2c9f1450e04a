package core

import (
	"math"
	"math/rand"
	"sort"

	"github.com/alem/alem/internal/cluster"
	"github.com/alem/alem/internal/feature"
)

// The built-in batch query strategies. The first four reproduce the
// picking halves of the paper selectors exactly (deterministic top-k,
// shuffled top-k, uniform, IWAL acceptance sampling); KCenterPicker and
// ScoredClusterPicker are the diversity-aware strategies pure
// uncertainty lacks — they trade a little per-example informativeness
// for batches that cover the ambiguous region instead of piling onto
// one near-duplicate neighborhood.

// TopPicker deterministically takes the k highest-scoring candidates,
// ties broken by lower pool index — the fully deterministic ordering
// §4.2.1 credits margin selection with. It draws nothing from the RNG.
// Scores must not be NaN: (score descending, pool index) is then a
// strict total order, so the batch is its first k candidates in that
// order, whatever order the candidates arrive in.
type TopPicker struct{}

// Name implements Picker.
func (TopPicker) Name() string { return "top" }

// Pick implements Picker.
func (TopPicker) Pick(_ *SelectContext, set *ScoredSet, k int) []int {
	return smallestMargins(set.Candidates, set.Scores, k)
}

// ShuffledTopPicker takes the k highest-scoring candidates with RANDOM
// tie-breaking: one Perm over the candidates, then the order of a stable
// sort by score, so equal-score candidates come out in shuffled order
// (§4.1's committee-variance tie-break). Exactly one Perm(len
// candidates) is drawn regardless of k. Scores must not be NaN.
type ShuffledTopPicker struct{}

// Name implements Picker.
func (ShuffledTopPicker) Name() string { return "shuffled-top" }

// Pick implements Picker.
func (ShuffledTopPicker) Pick(ctx *SelectContext, set *ScoredSet, k int) []int {
	return variancePick(ctx.Rand, set.Candidates, set.Scores, k)
}

// RandomPicker ignores scores and samples k candidates uniformly — the
// picking half of the supervised baseline. When the candidate set
// already fits the batch it is returned as-is with NO RNG draw
// (preserving the legacy Random draw-count contract); otherwise exactly
// one Perm is consumed.
type RandomPicker struct{}

// Name implements Picker.
func (RandomPicker) Name() string { return "uniform-sample" }

// Pick implements Picker.
func (RandomPicker) Pick(ctx *SelectContext, set *ScoredSet, k int) []int {
	n := len(set.Candidates)
	if n <= k {
		return append([]int(nil), set.Candidates...)
	}
	perm := ctx.Rand.Perm(n)[:k]
	out := make([]int, 0, k)
	for _, i := range perm {
		out = append(out, set.Candidates[i])
	}
	return out
}

// AcceptanceSamplePicker is IWAL's rejection sampler: candidates are
// visited in random order and accepted with probability
//
//	p = PMin + (1 − PMin) · score
//
// (scores must lie in [0,1]; AmbiguityScorer's contract), until k
// accepts or the pool is exhausted. One Perm plus one Float64 per
// visited candidate are drawn, in visit order.
type AcceptanceSamplePicker struct {
	// PMin is the floor acceptance probability (default 0.1).
	PMin float64
}

// Name implements Picker.
func (AcceptanceSamplePicker) Name() string { return "acceptance-sample" }

// Pick implements Picker.
func (ap AcceptanceSamplePicker) Pick(ctx *SelectContext, set *ScoredSet, k int) []int {
	pmin := ap.PMin
	if pmin <= 0 {
		pmin = 0.1
	}
	out := make([]int, 0, k)
	for n, j := range ctx.Rand.Perm(len(set.Candidates)) {
		if len(out) == k {
			break
		}
		if n%cancelCheckStride == 0 && ctx.Cancelled() {
			return nil
		}
		p := pmin + (1-pmin)*set.Scores[j]
		if ctx.Rand.Float64() < p {
			out = append(out, set.Candidates[j])
		}
	}
	return out
}

// KCenterPicker is greedy k-center (core-set) batch selection: the
// first pick is the highest-scoring candidate, and each subsequent pick
// is the candidate farthest (in feature space) from everything already
// picked — max-min distance, the 2-approximation greedy of the core-set
// approach to batch AL (Sener & Savarese). Ties break by higher score,
// then lower pool index. The batch therefore spreads across the
// candidate set instead of clustering on near-duplicate pairs, which is
// where pure uncertainty wastes labels (Han & Li).
//
// It draws nothing from the RNG; the distance-update sweep after each
// pick fans out across ctx.Workers on the deterministic substrate, so
// batches are bit-identical at every worker count.
type KCenterPicker struct{}

// Name implements Picker.
func (KCenterPicker) Name() string { return "kcenter" }

// Pick implements Picker.
func (KCenterPicker) Pick(ctx *SelectContext, set *ScoredSet, k int) []int {
	n := len(set.Candidates)
	if k <= 0 || n == 0 {
		return nil
	}
	if n <= k {
		return append([]int(nil), set.Candidates...)
	}
	first := 0
	for j := 1; j < n; j++ {
		if set.Scores[j] > set.Scores[first] ||
			(set.Scores[j] == set.Scores[first] && set.Candidates[j] < set.Candidates[first]) {
			first = j
		}
	}
	out := make([]int, 0, k)
	chosen := make([]bool, n)
	minDist := make([]float64, n)
	for j := range minDist {
		minDist[j] = math.Inf(1)
	}
	cur := first
	for {
		chosen[cur] = true
		out = append(out, set.Candidates[cur])
		if len(out) == k {
			return out
		}
		// Fold the newest center into every candidate's distance-to-batch.
		// Only minDist[j] for unchosen j is written, each j by exactly one
		// worker; the serial argmax below merges them deterministically.
		cx := ctx.Pool.X[set.Candidates[cur]]
		if err := parallelFor(ctx.Ctx, n, ctx.Workers, parallelCutoff, func(j int) {
			if chosen[j] {
				return
			}
			if d := sqDist(cx, ctx.Pool.X[set.Candidates[j]]); d < minDist[j] {
				minDist[j] = d
			}
		}); err != nil {
			return nil
		}
		next := -1
		for j := 0; j < n; j++ {
			if chosen[j] {
				continue
			}
			if next < 0 || minDist[j] > minDist[next] ||
				(minDist[j] == minDist[next] &&
					(set.Scores[j] > set.Scores[next] ||
						(set.Scores[j] == set.Scores[next] && set.Candidates[j] < set.Candidates[next]))) {
				next = j
			}
		}
		if next < 0 {
			return out
		}
		cur = next
	}
}

// sqDist is squared Euclidean distance over the common prefix of two
// feature vectors (pool vectors share one extractor, so lengths match in
// practice).
func sqDist(a, b feature.Vector) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	s := 0.0
	for i := 0; i < n; i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// ScoredClusterPicker is score-weighted cluster sampling: the top
// PoolMult·k candidates by score are grouped into feature-space
// clusters (single-link components under a distance threshold set at
// the LinkQuantile of the observed pairwise distances, via
// cluster.Components), and the batch is filled round-robin across
// clusters, sampling within each cluster with probability proportional
// to score rank. Near-duplicate ambiguous pairs land in one cluster and
// contribute one pick per round, so the batch covers distinct ambiguous
// neighborhoods instead of spending k labels on one.
//
// Clustering and ordering are fully deterministic; the only randomness
// is the within-cluster draws — exactly one Float64 from ctx.Rand per
// picked example, drawn serially, so RNG position stays a pure function
// of pool state at every worker count.
type ScoredClusterPicker struct {
	// PoolMult sizes the candidate pool at PoolMult·k (default 4),
	// capped at the scored set.
	PoolMult int
	// LinkQuantile in (0,1) picks the pairwise-distance quantile used as
	// the single-link threshold (default 0.25): smaller values mean
	// tighter clusters and more of them.
	LinkQuantile float64
}

// Name implements Picker.
func (ScoredClusterPicker) Name() string { return "cluster-sample" }

// Pick implements Picker.
func (cp ScoredClusterPicker) Pick(ctx *SelectContext, set *ScoredSet, k int) []int {
	n := len(set.Candidates)
	if k <= 0 || n == 0 {
		return nil
	}
	if n <= k {
		return append([]int(nil), set.Candidates...)
	}
	mult := cp.PoolMult
	if mult <= 0 {
		mult = 4
	}
	q := cp.LinkQuantile
	if q <= 0 || q >= 1 {
		q = 0.25
	}
	m := mult * k
	if m > n {
		m = n
	}

	// Candidate pool: top-m by score, ties by lower pool index.
	order := make([]int, n)
	for j := range order {
		order[j] = j
	}
	sort.Slice(order, func(a, b int) bool {
		ja, jb := order[a], order[b]
		if set.Scores[ja] != set.Scores[jb] {
			return set.Scores[ja] > set.Scores[jb]
		}
		return set.Candidates[ja] < set.Candidates[jb]
	})
	pool := order[:m]

	// Single-link components under the quantile distance threshold.
	var comps [][]int
	if m > 1 {
		dists := make([]float64, 0, m*(m-1)/2)
		for a := 0; a < m; a++ {
			for b := a + 1; b < m; b++ {
				dists = append(dists, sqDist(ctx.Pool.X[set.Candidates[pool[a]]], ctx.Pool.X[set.Candidates[pool[b]]]))
			}
		}
		sorted := append([]float64(nil), dists...)
		sort.Float64s(sorted)
		threshold := sorted[int(q*float64(len(sorted)-1))]
		var edges [][2]int
		di := 0
		for a := 0; a < m; a++ {
			for b := a + 1; b < m; b++ {
				if dists[di] <= threshold {
					edges = append(edges, [2]int{a, b})
				}
				di++
			}
		}
		comps = cluster.Components(m, edges)
	} else {
		comps = [][]int{{0}}
	}

	// Each component's members, best score first (ties by lower pool
	// index — pool is already in that order, so position in pool is the
	// rank). Components are visited in order of their best member.
	sort.Slice(comps, func(a, b int) bool { return comps[a][0] < comps[b][0] })

	// Round-robin across clusters; within a cluster, draw by rank-based
	// weight (1/(1+r) for its r-th best remaining member) — score-heavy
	// but scale-free, so it works under any scorer's score range.
	out := make([]int, 0, k)
	remaining := make([][]int, len(comps))
	for ci, members := range comps {
		remaining[ci] = append([]int(nil), members...)
	}
	for len(out) < k {
		pickedAny := false
		for ci := range remaining {
			if len(out) == k {
				break
			}
			mem := remaining[ci]
			if len(mem) == 0 {
				continue
			}
			total := 0.0
			for r := range mem {
				total += 1 / float64(1+r)
			}
			target := ctx.Rand.Float64() * total
			pick := len(mem) - 1
			acc := 0.0
			for r := range mem {
				acc += 1 / float64(1+r)
				if target < acc {
					pick = r
					break
				}
			}
			out = append(out, set.Candidates[pool[mem[pick]]])
			remaining[ci] = append(mem[:pick:pick], mem[pick+1:]...)
			pickedAny = true
		}
		if !pickedAny {
			break
		}
	}
	return out
}

// variancePick selects the k highest-variance indices with random
// tie-breaking: candidates are shuffled first and ranked by (variance
// descending, shuffled position), the order a stable sort of the
// shuffle by variance produces, so equal-variance examples come out in
// random order (§4.1).
func variancePick(r *rand.Rand, unlabeled []int, variance []float64, k int) []int {
	order := r.Perm(len(unlabeled))
	top := boundedTop(len(order), k, func(a, b int) bool {
		va, vb := variance[order[a]], variance[order[b]]
		return va > vb || (va == vb && a < b)
	})
	for t, p := range top {
		top[t] = unlabeled[order[p]]
	}
	return top
}

// smallestMargins selects the k highest scores (the smallest margins,
// which scorers negate), ties broken by pool index — the fully
// deterministic ordering §4.2.1 credits margin with. For NaN-free
// scores the (score, idx) key is a strict total order, so the result
// does not depend on the input's arrangement.
func smallestMargins(cands []int, scores []float64, k int) []int {
	top := boundedTop(len(cands), k, func(a, b int) bool {
		return scores[a] > scores[b] || (scores[a] == scores[b] && cands[a] < cands[b])
	})
	for t, j := range top {
		top[t] = cands[j]
	}
	return top
}

// boundedTop returns the k least positions of [0, n) under less, in
// ascending order: the first k of a full sort, in O(n log k). It keeps
// the k best positions seen so far in a heap whose root is the worst of
// them, then heap-sorts the survivors. less must be a strict total
// order, so the survivors and their order are unique.
func boundedTop(n, k int, less func(a, b int) bool) []int {
	k = max(0, min(k, n))
	h := make([]int, 0, k)
	if k == 0 {
		return h
	}
	// siftDown restores the heap below i in h[:end]: a parent never
	// orders before its children.
	siftDown := func(i, end int) {
		for {
			c := 2*i + 1
			if c >= end {
				return
			}
			if c+1 < end && less(h[c], h[c+1]) {
				c++
			}
			if !less(h[i], h[c]) {
				return
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	for j := 0; j < n; j++ {
		if len(h) < k {
			h = append(h, j)
			for i := len(h) - 1; i > 0; {
				parent := (i - 1) / 2
				if !less(h[parent], h[i]) {
					break
				}
				h[i], h[parent] = h[parent], h[i]
				i = parent
			}
		} else if less(j, h[0]) {
			h[0] = j
			siftDown(0, k)
		}
	}
	for end := k - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		siftDown(0, end)
	}
	return h
}
