package blocking

import (
	"cmp"
	"context"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/alem/alem/internal/dataset"
	"github.com/alem/alem/internal/textsim"
)

// CandidateIndex is the indexed CandidateGenerator: sharded inverted
// posting lists over the right table's tokens, with a prefix filter that
// bounds which postings a record appears in and a count filter applied
// before exact Jaccard verification.
//
// Index layout. Tokens are interned to dense int32 ids, partitioned into
// S shards by a string hash; shard s owns every token with id ≡ s (mod
// S), so the dictionary, document-frequency table and posting lists of
// the shards are disjoint and Build populates them with one worker per
// shard and no locks. A right record of n distinct tokens is posted only
// under its *prefix*: its tokens ordered by ascending document frequency
// (rarest first), truncated to n − need + 1 entries, where need is the
// smallest intersection size that could put a pair with this record at
// or above the threshold. Any qualifying pair shares at least need
// tokens, and only need − 1 tokens are left out of the prefix, so by
// pigeonhole at least one shared token is posted — the same argument the
// pre-index stop-token repair used, now applied at build time instead of
// probe time. Probing walks *all* of a left record's tokens, which keeps
// the filter correct for any per-record prefix order and therefore keeps
// incremental Add exact even as document frequencies drift from the
// values older prefixes were chosen under.
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
// A CandidateIndex is safe for concurrent use: Add takes the write lock,
// Candidates and Stats share the read lock.
type CandidateIndex struct {
	d         *dataset.Dataset
	threshold float64
	workers   int
	nShards   int

	mu    sync.RWMutex
	built bool

	shards    []indexShard
	rightSets [][]int32 // per right record: sorted distinct token ids
	unposted  []int32   // per right record: distinct tokens its prefix leaves unposted
	postings  int       // posting entries across all shards

	// Left-side tokenization is fixed at construction, so Build caches the
	// distinct token strings and their shard hashes once.
	leftDistinct [][]string
	leftHash     [][]uint32

	// Candidates also caches each left record's sorted known-token-id
	// list. Token ids are append-only — an interned token never changes
	// id — so the mapping of a left token can only change when a
	// previously unknown token enters the dictionary, which always grows
	// it. The cache therefore stays exact as long as the dictionary holds
	// exactly cacheTokens tokens and is rebuilt (lazily, on the next
	// Candidates call) when an Add interns something new. Guarded by
	// cacheMu, not mu: Candidates holds only the read lock, and the
	// dictionary cannot move underneath it there.
	cacheMu     sync.Mutex
	leftKnown   [][]int32
	cacheTokens int

	c funnelCounters
}

// indexShard owns the tokens whose global id is ≡ its index (mod shard
// count): their dictionary entries, document frequencies and posting
// lists. Global id g lives in shard g % S at local slot g / S.
type indexShard struct {
	ids  map[string]int32  // token -> local id
	df   []int32           // local id -> right-corpus document frequency
	post map[int32][]int32 // global id -> right record ids, ascending
}

type funnelCounters struct {
	builds, adds                                      atomic.Int64
	probed, sizeSkipped, countSkipped, verified, kept atomic.Int64
}

// NewCandidateIndex returns an unbuilt index over d. The zero options
// take the dataset's own blocking threshold and one shard and worker per
// CPU; call Build before Add or Candidates.
func NewCandidateIndex(d *dataset.Dataset, opts IndexOptions) *CandidateIndex {
	threshold := opts.Threshold
	if threshold <= 0 {
		threshold = d.BlockThreshold
	}
	nShards := opts.Shards
	if nShards <= 0 {
		nShards = runtime.GOMAXPROCS(0)
	}
	return &CandidateIndex{
		d:         d,
		threshold: threshold,
		workers:   resolveWorkers(opts.Workers),
		nShards:   nShards,
	}
}

func resolveWorkers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// strHash is FNV-1a over the token bytes; it only routes tokens to
// shards, so it needs speed and spread, not cryptographic strength.
func strHash(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
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

// globalID composes a shard-local id with its shard index.
func globalID(local int32, shard, nShards int) int32 {
	return local*int32(nShards) + int32(shard)
}

// dfOf reads the document frequency of a global token id.
func (x *CandidateIndex) dfOfLocked(shards []indexShard, g int32) int32 {
	s := int(g) % x.nShards
	return shards[s].df[int(g)/x.nShards]
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

// leftKnownLocked returns the per-left sorted known-token-id lists,
// rebuilding the cache when the dictionary has grown since it was
// computed. Callers must hold the read lock (so the dictionary is
// stable); cacheMu serialises rebuilds between concurrent Candidates
// calls. A cancelled rebuild commits nothing.
func (x *CandidateIndex) leftKnownLocked(ctx context.Context) ([][]int32, error) {
	S := x.nShards
	dictTokens := 0
	for i := range x.shards {
		dictTokens += len(x.shards[i].df)
	}
	x.cacheMu.Lock()
	defer x.cacheMu.Unlock()
	if x.leftKnown != nil && x.cacheTokens == dictTokens {
		return x.leftKnown, nil
	}
	nL := len(x.leftDistinct)
	known := make([][]int32, nL)
	err := parChunks(ctx, nL, x.workers, func(lo, hi int) {
		for li := lo; li < hi; li++ {
			if (li-lo)%cancelCheckStride == 0 && ctx.Err() != nil {
				return
			}
			toks := x.leftDistinct[li]
			if len(toks) == 0 {
				continue
			}
			ids := make([]int32, 0, len(toks))
			for j, t := range toks {
				s := int(x.leftHash[li][j]) % S
				if local, ok := x.shards[s].ids[t]; ok {
					ids = append(ids, globalID(local, s, S))
				}
			}
			slices.Sort(ids)
			known[li] = ids
		}
	})
	if err != nil {
		return nil, err
	}
	x.leftKnown = known
	x.cacheTokens = dictTokens
	return known, nil
}

// Build constructs the index over the dataset's current right table and
// caches the left-side tokenization. It runs in parallel over the
// configured worker count, polls ctx on cancelCheckStride throughout,
// and on cancellation leaves the index in its previous state (the new
// structures are committed only at the end).
func (x *CandidateIndex) Build(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	x.mu.Lock()
	defer x.mu.Unlock()

	// Stage 1: tokenize both tables and dedup per record.
	rightTokens, err := tokenizeTable(ctx, x.d.Right, x.workers)
	if err != nil {
		return err
	}
	rightDistinct, rightHash, err := distinctTokens(ctx, rightTokens, x.workers)
	if err != nil {
		return err
	}
	leftTokens, err := tokenizeTable(ctx, x.d.Left, x.workers)
	if err != nil {
		return err
	}
	leftDistinct, leftHash, err := distinctTokens(ctx, leftTokens, x.workers)
	if err != nil {
		return err
	}

	// Stage 2: per-shard dictionaries and document frequencies. Each
	// worker owns one shard and scans every record, claiming only the
	// tokens that hash into its shard, so id assignment is lock-free and
	// deterministic for a given shard count.
	nR := len(rightDistinct)
	S := x.nShards
	shards := make([]indexShard, S)
	err = parChunks(ctx, S, x.workers, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			sh := &shards[s]
			sh.ids = make(map[string]int32)
			for ri, toks := range rightDistinct {
				if ri%cancelCheckStride == 0 && ctx.Err() != nil {
					return
				}
				for j, t := range toks {
					if int(rightHash[ri][j])%S != s {
						continue
					}
					local, ok := sh.ids[t]
					if !ok {
						local = int32(len(sh.df))
						sh.ids[t] = local
						sh.df = append(sh.df, 0)
					}
					sh.df[local]++
				}
			}
		}
	})
	if err != nil {
		return err
	}

	// Stage 3: per-record sorted id sets.
	rightSets := make([][]int32, nR)
	err = parChunks(ctx, nR, x.workers, func(lo, hi int) {
		for ri := lo; ri < hi; ri++ {
			if (ri-lo)%cancelCheckStride == 0 && ctx.Err() != nil {
				return
			}
			toks := rightDistinct[ri]
			set := make([]int32, len(toks))
			for j, t := range toks {
				s := int(rightHash[ri][j]) % S
				set[j] = globalID(shards[s].ids[t], s, S)
			}
			slices.Sort(set)
			rightSets[ri] = set
		}
	})
	if err != nil {
		return err
	}

	// Stage 4: per-record prefixes — rarest-first order, truncated so only
	// need−1 tokens stay unposted.
	prefixes := make([][]int32, nR)
	unposted := make([]int32, nR)
	err = parChunks(ctx, nR, x.workers, func(lo, hi int) {
		for ri := lo; ri < hi; ri++ {
			if (ri-lo)%cancelCheckStride == 0 && ctx.Err() != nil {
				return
			}
			prefixes[ri] = x.prefixOf(shards, rightSets[ri])
			unposted[ri] = int32(len(rightSets[ri]) - len(prefixes[ri]))
		}
	})
	if err != nil {
		return err
	}

	// Stage 5: posting lists, again one worker per shard over the
	// precomputed prefixes; record ids are appended in ascending order.
	err = parChunks(ctx, S, x.workers, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			sh := &shards[s]
			sh.post = make(map[int32][]int32)
			for ri, pre := range prefixes {
				if ri%cancelCheckStride == 0 && ctx.Err() != nil {
					return
				}
				for _, g := range pre {
					if int(g)%S == s {
						sh.post[g] = append(sh.post[g], int32(ri))
					}
				}
			}
		}
	})
	if err != nil {
		return err
	}

	postings := 0
	for _, pre := range prefixes {
		postings += len(pre)
	}

	// Commit: a cancelled build above never reaches this point, so the
	// previously built index (if any) stays intact and usable.
	x.shards = shards
	x.rightSets = rightSets
	x.unposted = unposted
	x.postings = postings
	x.leftDistinct = leftDistinct
	x.leftHash = leftHash
	x.cacheMu.Lock()
	x.leftKnown = nil // rebuilt lazily against the new dictionary
	x.cacheTokens = 0
	x.cacheMu.Unlock()
	x.built = true
	x.c.builds.Add(1)
	totalBuilds.Add(1)
	totalPostings.Add(int64(postings))
	return nil
}

// prefixOf orders a record's token ids rarest-first (ties by id) and
// truncates to the posted prefix.
func (x *CandidateIndex) prefixOf(shards []indexShard, set []int32) []int32 {
	p := prefixLen(x.threshold, len(set))
	if p == 0 {
		return nil
	}
	ordered := make([]int32, len(set))
	copy(ordered, set)
	slices.SortFunc(ordered, func(a, b int32) int {
		if c := cmp.Compare(x.dfOfLocked(shards, a), x.dfOfLocked(shards, b)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return ordered[:p]
}

// Add streams one right-side record into the index: it interns any new
// tokens, bumps the document frequencies of the record's tokens, and
// appends the record to the posting lists of its prefix — no rebuild.
// The prefix is chosen under the document frequencies at insert time;
// that only steers which tokens are posted, never correctness, because
// probing walks every left token. Returns the right index assigned to
// the record.
func (x *CandidateIndex) Add(ctx context.Context, rec dataset.Record) (int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if !x.built {
		return 0, ErrNotBuilt
	}
	S := x.nShards
	toks := textsim.Whitespace{}.Tokens(recordText(rec))
	seen := make(map[string]struct{}, len(toks))
	set := make([]int32, 0, len(toks))
	for _, t := range toks {
		if _, dup := seen[t]; dup {
			continue
		}
		seen[t] = struct{}{}
		s := int(strHash(t)) % S
		sh := &x.shards[s]
		local, ok := sh.ids[t]
		if !ok {
			local = int32(len(sh.df))
			sh.ids[t] = local
			sh.df = append(sh.df, 0)
		}
		sh.df[local]++
		set = append(set, globalID(local, s, S))
	}
	slices.Sort(set)
	ri := len(x.rightSets)
	x.rightSets = append(x.rightSets, set)
	pre := x.prefixOf(x.shards, set)
	x.unposted = append(x.unposted, int32(len(set)-len(pre)))
	for _, g := range pre {
		sh := &x.shards[int(g)%S]
		sh.post[g] = append(sh.post[g], int32(ri))
	}
	x.postings += len(pre)
	x.c.adds.Add(1)
	totalAdds.Add(1)
	totalPostings.Add(int64(len(pre)))
	return ri, nil
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
	S := x.nShards
	nL := len(x.leftDistinct)
	nR := len(x.rightSets)
	threshold := x.threshold
	perLeft := make([][]dataset.PairKey, nL)
	// The left record → known-id mapping is cached across calls; unknown
	// tokens have no postings but still count toward the union via the
	// distinct-token count.
	leftKnown, err := x.leftKnownLocked(ctx)
	if err != nil {
		return nil, err
	}

	err = parChunks(ctx, nL, x.workers, func(lo, hi int) {
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
			totalProbed.Add(probed)
			totalSizeSkipped.Add(sizeSkipped)
			totalCountSkipped.Add(countSkipped)
			totalVerified.Add(verified)
			totalKept.Add(kept)
		}()
		for li := lo; li < hi; li++ {
			if (li-lo)%cancelCheckStride == 0 && ctx.Err() != nil {
				return
			}
			nx := len(x.leftDistinct[li])
			if nx == 0 {
				continue
			}
			known := leftKnown[li]
			// Probe every known token's postings, deduping right ids and
			// counting each one's hits. A posting list holds a record at
			// most once and known is distinct, so hits is exactly the
			// posted part of the pair's intersection.
			cand = cand[:0]
			mark := st.mark()
			for _, g := range known {
				for _, ri := range x.shards[int(g)%S].post[g] {
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
	tokens := 0
	for i := range x.shards {
		tokens += len(x.shards[i].df)
	}
	return IndexStats{
		Built:        x.built,
		Builds:       x.c.builds.Load(),
		Adds:         x.c.adds.Load(),
		RightRecords: len(x.rightSets),
		Tokens:       tokens,
		Postings:     x.postings,
		Shards:       x.nShards,
		Probed:       x.c.probed.Load(),
		SizeSkipped:  x.c.sizeSkipped.Load(),
		CountSkipped: x.c.countSkipped.Load(),
		Verified:     x.c.verified.Load(),
		Kept:         x.c.kept.Load(),
	}
}

// distinctTokens dedups each record's tokens (first-seen order) and
// pre-computes their shard hashes.
func distinctTokens(ctx context.Context, tokens [][]string, workers int) ([][]string, [][]uint32, error) {
	distinct := make([][]string, len(tokens))
	hashes := make([][]uint32, len(tokens))
	err := parChunks(ctx, len(tokens), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if (i-lo)%cancelCheckStride == 0 && ctx.Err() != nil {
				return
			}
			toks := tokens[i]
			seen := make(map[string]struct{}, len(toks))
			ds := make([]string, 0, len(toks))
			hs := make([]uint32, 0, len(toks))
			for _, t := range toks {
				if _, dup := seen[t]; dup {
					continue
				}
				seen[t] = struct{}{}
				ds = append(ds, t)
				hs = append(hs, strHash(t))
			}
			distinct[i] = ds
			hashes[i] = hs
		}
	})
	if err != nil {
		return nil, nil, err
	}
	return distinct, hashes, nil
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
