package blocking

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/alem/alem/internal/dataset"
	"github.com/alem/alem/internal/par"
	"github.com/alem/alem/internal/textsim"
)

// Naive is the reference CandidateGenerator: it scores the full left ×
// right Cartesian product with exact token Jaccard and keeps the pairs
// at or above the threshold that share at least one token. It is the
// specification the indexed path is pinned against in the equivalence
// suite, the baseline side of the naive-vs-indexed benchmark pair, and
// deliberately index-free.
type Naive struct {
	d         *dataset.Dataset
	threshold float64
	workers   int

	mu    sync.RWMutex
	built bool
	left  [][]string
	right [][]string

	builds, verified, kept atomic.Int64
}

// NewNaive returns an unbuilt naive generator over d; a non-positive
// threshold takes the dataset's own.
func NewNaive(d *dataset.Dataset, threshold float64) *Naive {
	if threshold <= 0 {
		threshold = d.BlockThreshold
	}
	return &Naive{d: d, threshold: threshold, workers: par.Workers(0)}
}

// Build tokenizes both tables.
func (n *Naive) Build(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	left, err := tokenizeTable(ctx, n.d.Left, n.workers)
	if err != nil {
		return err
	}
	right, err := tokenizeTable(ctx, n.d.Right, n.workers)
	if err != nil {
		return err
	}
	n.left, n.right = left, right
	n.built = true
	n.builds.Add(1)
	return nil
}

// Candidates scores every pair of the Cartesian product.
func (n *Naive) Candidates(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	if !n.built {
		return nil, ErrNotBuilt
	}
	threshold := n.threshold
	perLeft := make([][]dataset.PairKey, len(n.left))
	err := par.Chunks(ctx, len(n.left), n.workers, 2, func(lo, hi int) {
		var verified, kept int64
		defer func() {
			n.verified.Add(verified)
			n.kept.Add(kept)
		}()
		for li := lo; li < hi; li++ {
			lt := n.left[li]
			if len(lt) == 0 {
				// Token-free records pair with nothing: a pair sharing no
				// token is not a candidate, even the Jaccard-1 empty-empty
				// case.
				continue
			}
			var pairs []dataset.PairKey
			for ri, rt := range n.right {
				if ri%par.Stride == 0 && ctx.Err() != nil {
					return
				}
				if len(rt) == 0 {
					continue
				}
				verified++
				if textsim.JaccardTokens(lt, rt) >= threshold {
					pairs = append(pairs, dataset.PairKey{L: li, R: ri})
				}
			}
			sort.Slice(pairs, func(a, b int) bool { return pairs[a].R < pairs[b].R })
			kept += int64(len(pairs))
			perLeft[li] = pairs
		}
	})
	if err != nil {
		return nil, err
	}
	res := &Result{MatchesTotal: n.d.NumMatches()}
	for _, ps := range perLeft {
		res.Pairs = append(res.Pairs, ps...)
	}
	for _, p := range res.Pairs {
		if n.d.IsMatch(p) {
			res.MatchesKept++
		}
	}
	return res, nil
}

// Stats implements CandidateGenerator; the index-shape fields report the
// degenerate no-index values.
func (n *Naive) Stats() IndexStats {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return IndexStats{
		Built:        n.built,
		Builds:       n.builds.Load(),
		RightRecords: len(n.right),
		Probed:       n.verified.Load(),
		Verified:     n.verified.Load(),
		Kept:         n.kept.Load(),
	}
}
