package blocking

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/alem/alem/internal/dataset"
	"github.com/alem/alem/internal/par"
)

// CandidateIndex is the indexed CandidateGenerator: inverted posting
// lists over the right table's tokens, with a prefix filter that bounds
// which postings a record appears in and a count filter applied before
// exact Jaccard verification.
//
// Index layout. One dictionary interns tokens to dense int32 ids in the
// order they are first seen over the right table (record order, then
// token order), and keeps each id's document frequency and posting list
// in slices indexed by id. A right record of n distinct tokens is posted
// only under its *prefix*: its tokens ordered by ascending document
// frequency (rarest first, ties by id), truncated to n − need + 1
// entries, where need is the smallest intersection size that could put a
// pair with this record at or above the threshold. Any qualifying pair shares at least need
// tokens, and only need − 1 tokens are left out of the prefix, so by
// pigeonhole at least one shared token is posted — the same argument the
// pre-index stop-token repair used, now applied at build time instead of
// probe time. Probing walks *all* of a left record's tokens, which keeps
// the filter correct for any per-record prefix order.
//
// need is computed in the same float arithmetic the verifier uses
// (smallest i with float64(i)/float64(n) >= threshold), not with
// math.Ceil over a float product, so a pair that sits exactly on the
// threshold can never be lost to rounding.
//
// Enumeration dedups posting hits per left record while counting them,
// drops candidates whose overlap cannot reach the threshold (count
// filter: the hits plus the right record's unposted tokens, capped by
// both records' distinct-token counts, bound the intersection), and
// verifies survivors with an exact sorted-intersection Jaccard — so the
// output is identical to the naive Cartesian scan, in the same
// left-major, right-ascending order.
//
// A CandidateIndex is built once and then enumerated; it is safe for
// concurrent use: Build takes the write lock, Candidates and Stats share
// the read lock.
type CandidateIndex struct {
	d         *dataset.Dataset
	threshold float64
	workers   int

	mu    sync.RWMutex
	built bool

	dict      tokenDict
	rightSets [][]int32 // per right record: sorted distinct token ids
	unposted  []int32   // per right record: distinct tokens its prefix leaves unposted
	postings  int       // posting entries across all tokens
	leftKnown [][]int32 // per left record: sorted ids of its tokens the dictionary holds
	leftSizes []int32   // per left record: distinct tokens, known or not

	c funnelCounters
}

// tokenDict is the index's token dictionary: dense ids in first-seen
// order, and per id the right-corpus document frequency and posting list.
type tokenDict struct {
	ids  map[string]int32 // token -> id
	df   []int32          // id -> right-corpus document frequency
	post [][]int32        // id -> right record ids, ascending
}

// intern returns the sorted distinct id set of one right record's
// tokens, giving new tokens the next ids in first-seen order and counting
// the record once in each of its tokens' document frequencies.
func (dc *tokenDict) intern(toks []string) []int32 {
	set := make([]int32, 0, len(toks))
	for _, t := range toks {
		id, ok := dc.ids[t]
		if !ok {
			id = int32(len(dc.df))
			dc.ids[t] = id
			dc.df = append(dc.df, 0)
			dc.post = append(dc.post, nil)
		}
		set = append(set, id)
	}
	slices.Sort(set)
	set = slices.Compact(set)
	for _, id := range set {
		dc.df[id]++
	}
	return set
}

type funnelCounters struct {
	builds, probed, sizeSkipped, countSkipped, verified, kept atomic.Int64
}

// NewCandidateIndex returns an unbuilt index over d. The zero options
// take the dataset's own blocking threshold and one worker per CPU; call
// Build before Candidates.
func NewCandidateIndex(d *dataset.Dataset, opts IndexOptions) *CandidateIndex {
	threshold := opts.Threshold
	if threshold <= 0 {
		threshold = d.BlockThreshold
	}
	return &CandidateIndex{
		d:         d,
		threshold: threshold,
		workers:   par.Workers(opts.Workers),
	}
}

// minOverlap returns the smallest intersection size i (1 ≤ i ≤ n) for
// which float64(i)/float64(n) >= threshold — the fewest tokens a pair
// must share with an n-distinct-token record to possibly reach the
// threshold, measured in exactly the float arithmetic verification uses.
// Returns n+1 when no intersection size qualifies (threshold > 1).
func minOverlap(threshold float64, n int) int {
	if n <= 0 {
		return 1
	}
	k := int(threshold * float64(n))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	for k > 1 && float64(k-1)/float64(n) >= threshold {
		k--
	}
	for k <= n && float64(k)/float64(n) < threshold {
		k++
	}
	return k
}

// prefixLen is how many of a record's n distinct tokens are posted: all
// but need−1 of them, so a qualifying pair (sharing ≥ need tokens) must
// hit at least one posted token.
func prefixLen(threshold float64, n int) int {
	need := minOverlap(threshold, n)
	if need > n {
		return 0
	}
	return n - need + 1
}

// stampSet is a reusable stamp-dedup array: slot ri is "seen" iff it
// holds the current marker. Markers only ever grow, so a recycled array
// needs no clearing — every historic write is below the next marker —
// and growth within capacity is equally safe for the same reason. Only
// marker wraparound (once per 2^31 probes) pays for a clear. hits[ri]
// counts the posting hits of the current marker's probe; it is set on
// the first hit, so it never needs clearing either.
type stampSet struct {
	v    []int32
	hits []int32
	cur  int32
}

var stampPool = sync.Pool{New: func() any { return new(stampSet) }}

func getStampSet(n int) *stampSet {
	st := stampPool.Get().(*stampSet)
	if cap(st.v) < n {
		st.v = make([]int32, n)
		st.hits = make([]int32, n)
		st.cur = 0
	}
	st.v = st.v[:n]
	st.hits = st.hits[:n]
	return st
}

// mark returns a fresh marker no slot currently holds.
func (st *stampSet) mark() int32 {
	if st.cur == math.MaxInt32 {
		clear(st.v)
		st.cur = 0
	}
	st.cur++
	return st.cur
}

// Build constructs the index over the dataset's current tables: the
// right table's dictionary, prefixes and posting lists, and each left
// record's token ids. Tokenizing, the left-id mapping and the prefix
// sweep run in parallel over the configured worker count; the dictionary
// and the posting lists are filled by serial passes in record order, so
// token ids and posting order never depend on it. Every stage polls ctx
// every par.Stride records, and on cancellation the index keeps its
// previous state (the new structures are committed only at the end).
func (x *CandidateIndex) Build(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	x.mu.Lock()
	defer x.mu.Unlock()

	// Stage 1: tokenize both tables; dedup each left record.
	rightTokens, err := tokenizeTable(ctx, x.d.Right, x.workers)
	if err != nil {
		return err
	}
	leftTokens, err := tokenizeTable(ctx, x.d.Left, x.workers)
	if err != nil {
		return err
	}
	leftDistinct, err := distinctTokens(ctx, leftTokens, x.workers)
	if err != nil {
		return err
	}

	// Stage 2: the dictionary, document frequencies and per-record sorted
	// id sets, in one serial pass over the right table.
	nR := len(rightTokens)
	dict := tokenDict{ids: make(map[string]int32)}
	rightSets := make([][]int32, nR)
	for ri, toks := range rightTokens {
		if ri%par.Stride == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		rightSets[ri] = dict.intern(toks)
	}

	// Stage 3: each left record's known token ids. Unknown tokens have no
	// postings but still count toward the union through leftSizes.
	nL := len(leftDistinct)
	leftKnown := make([][]int32, nL)
	leftSizes := make([]int32, nL)
	err = par.Blocks(ctx, nL, x.workers, 2, func(lo, hi int) {
		for li := lo; li < hi; li++ {
			toks := leftDistinct[li]
			leftSizes[li] = int32(len(toks))
			if len(toks) == 0 {
				continue
			}
			ids := make([]int32, 0, len(toks))
			for _, t := range toks {
				if id, ok := dict.ids[t]; ok {
					ids = append(ids, id)
				}
			}
			slices.Sort(ids)
			leftKnown[li] = ids
		}
	})
	if err != nil {
		return err
	}

	// Stage 4: per-record prefixes — rarest-first order, truncated so only
	// need−1 tokens stay unposted.
	prefixes := make([][]int32, nR)
	unposted := make([]int32, nR)
	err = par.Blocks(ctx, nR, x.workers, 2, func(lo, hi int) {
		for ri := lo; ri < hi; ri++ {
			prefixes[ri] = prefixOf(x.threshold, dict.df, rightSets[ri])
			unposted[ri] = int32(len(rightSets[ri]) - len(prefixes[ri]))
		}
	})
	if err != nil {
		return err
	}

	// Stage 5: posting lists, in a second serial pass, so each list holds
	// its record ids in ascending order.
	postings := 0
	for ri, pre := range prefixes {
		if ri%par.Stride == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		for _, id := range pre {
			dict.post[id] = append(dict.post[id], int32(ri))
		}
		postings += len(pre)
	}

	// Commit: a cancelled build above never reaches this point, so the
	// previously built index (if any) stays intact and usable.
	x.dict = dict
	x.rightSets = rightSets
	x.unposted = unposted
	x.postings = postings
	x.leftKnown = leftKnown
	x.leftSizes = leftSizes
	x.built = true
	x.c.builds.Add(1)
	return nil
}

// prefixOf orders a record's token ids rarest-first under df (ties by id)
// and truncates to the posted prefix.
func prefixOf(threshold float64, df, set []int32) []int32 {
	p := prefixLen(threshold, len(set))
	if p == 0 {
		return nil
	}
	ordered := slices.Clone(set)
	slices.SortFunc(ordered, func(a, b int32) int {
		if c := cmp.Compare(df[a], df[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return ordered[:p]
}

// Candidates enumerates the candidate pairs of left × indexed-right:
// posting-list probe, per-left dedup and hit count, count filter, exact
// verification.
// Pairs are ordered left-major with ascending right indices — the same
// canonical order the pre-index implementation produced, so pools built
// on top are bit-identical.
func (x *CandidateIndex) Candidates(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	x.mu.RLock()
	defer x.mu.RUnlock()
	if !x.built {
		return nil, ErrNotBuilt
	}
	nL := len(x.leftKnown)
	nR := len(x.rightSets)
	threshold := x.threshold
	perLeft := make([][]dataset.PairKey, nL)

	err := par.Chunks(ctx, nL, x.workers, 2, func(lo, hi int) {
		// Worker-local probe state: a pooled stamp array dedups and counts
		// posting hits without clearing between left records or between
		// calls, and one pairs buffer serves every left record.
		st := getStampSet(nR)
		defer stampPool.Put(st)
		var cand []int32
		var buf []dataset.PairKey
		var probed, sizeSkipped, countSkipped, verified, kept int64
		defer func() {
			x.c.probed.Add(probed)
			x.c.sizeSkipped.Add(sizeSkipped)
			x.c.countSkipped.Add(countSkipped)
			x.c.verified.Add(verified)
			x.c.kept.Add(kept)
		}()
		for li := lo; li < hi; li++ {
			if (li-lo)%par.Stride == 0 && ctx.Err() != nil {
				return
			}
			nx := int(x.leftSizes[li])
			if nx == 0 {
				continue
			}
			known := x.leftKnown[li]
			// Probe every known token's postings, deduping right ids and
			// counting each one's hits. A posting list holds a record at
			// most once and known is distinct, so hits is exactly the
			// posted part of the pair's intersection.
			cand = cand[:0]
			mark := st.mark()
			for _, id := range known {
				for _, ri := range x.dict.post[id] {
					if st.v[ri] != mark {
						st.v[ri] = mark
						st.hits[ri] = 1
						cand = append(cand, ri)
					} else {
						st.hits[ri]++
					}
				}
			}
			probed += int64(len(cand))
			buf = buf[:0]
			for _, ri := range cand {
				ny := len(x.rightSets[ri])
				minv := min(nx, ny)
				// Count filter: the intersection is at most the hits plus
				// the tokens the right record left unposted, and at most
				// either record's size. The verifier's own expression
				// does not decrease as the intersection grows (correctly
				// rounded division is monotone), so a bound below the
				// threshold can never lose a pair. With ub = min(nx, ny)
				// the check is the size filter min/max, term for term, and
				// the skip is charged to it.
				ub := min(int(st.hits[ri])+int(x.unposted[ri]), minv)
				if float64(ub)/float64(nx+ny-ub) < threshold {
					if ub == minv {
						sizeSkipped++
					} else {
						countSkipped++
					}
					continue
				}
				verified++
				inter := intersectSorted(known, x.rightSets[ri])
				union := nx + ny - inter
				if float64(inter)/float64(union) >= threshold {
					buf = append(buf, dataset.PairKey{L: li, R: int(ri)})
				}
			}
			if len(buf) == 0 {
				continue
			}
			slices.SortFunc(buf, func(a, b dataset.PairKey) int { return cmp.Compare(a.R, b.R) })
			kept += int64(len(buf))
			// One right-sized slice per productive left record; the
			// buffer itself is reused for the next one.
			perLeft[li] = slices.Clone(buf)
		}
	})
	if err != nil {
		return nil, err
	}

	res := &Result{MatchesTotal: x.d.NumMatches()}
	total := 0
	for _, ps := range perLeft {
		total += len(ps)
	}
	if total > 0 {
		res.Pairs = make([]dataset.PairKey, 0, total)
	}
	for _, ps := range perLeft {
		res.Pairs = append(res.Pairs, ps...)
	}
	for _, p := range res.Pairs {
		if x.d.IsMatch(p) {
			res.MatchesKept++
		}
	}
	return res, nil
}

// Stats implements CandidateGenerator.
func (x *CandidateIndex) Stats() IndexStats {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return IndexStats{
		Built:        x.built,
		Builds:       x.c.builds.Load(),
		RightRecords: len(x.rightSets),
		Tokens:       len(x.dict.df),
		Postings:     x.postings,
		Probed:       x.c.probed.Load(),
		SizeSkipped:  x.c.sizeSkipped.Load(),
		CountSkipped: x.c.countSkipped.Load(),
		Verified:     x.c.verified.Load(),
		Kept:         x.c.kept.Load(),
	}
}

// distinctTokens dedups each record's tokens (first-seen order).
func distinctTokens(ctx context.Context, tokens [][]string, workers int) ([][]string, error) {
	distinct := make([][]string, len(tokens))
	err := par.Blocks(ctx, len(tokens), workers, 2, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			toks := tokens[i]
			seen := make(map[string]struct{}, len(toks))
			ds := make([]string, 0, len(toks))
			for _, t := range toks {
				if _, dup := seen[t]; dup {
					continue
				}
				seen[t] = struct{}{}
				ds = append(ds, t)
			}
			distinct[i] = ds
		}
	})
	if err != nil {
		return nil, err
	}
	return distinct, nil
}

// intersectSorted returns |a ∩ b| for ascending-sorted id slices.
func intersectSorted(a, b []int32) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}
