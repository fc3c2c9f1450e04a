package blocking

import (
	"context"
	"errors"
	"strings"
	"sync"

	"github.com/alem/alem/internal/dataset"
	"github.com/alem/alem/internal/textsim"
)

// CandidateGenerator is the candidate-generation contract the rest of the
// framework programs against: build an index over the right table, stream
// further right-side records into it without rebuilding, and enumerate
// the candidate pairs at or above the generator's Jaccard threshold.
//
// The contract all implementations share, pinned by the equivalence suite
// in property_test.go: Candidates returns exactly the pairs whose
// full-record token sets have Jaccard similarity at or above the
// threshold *and share at least one token*, ordered left-major with
// ascending right indices. (Two token-free records score Jaccard 1 but
// share no token and are never candidates; thresholds must be positive,
// so any other token-disjoint pair is below threshold anyway.)
//
// Build, Add and Candidates honour context cancellation on the package's
// cancelCheckStride; a cancelled call returns the context's error and
// leaves any previously built index intact.
type CandidateGenerator interface {
	// Build (re)constructs the generator's index over the dataset it was
	// created for. It must be called before Add or Candidates.
	Build(ctx context.Context) error
	// Add streams one additional right-side record into the index without
	// a rebuild and returns the right index assigned to it (records added
	// after Build extend the right table's index space). The caller owns
	// appending the record to whatever table downstream featurization
	// reads; Add only maintains the index.
	Add(ctx context.Context, rec dataset.Record) (int, error)
	// Candidates enumerates the candidate pairs of left × indexed-right.
	// It may be called repeatedly, interleaved with Add.
	Candidates(ctx context.Context) (*Result, error)
	// Stats reports index shape and filter-funnel counters.
	Stats() IndexStats
}

// ErrNotBuilt is returned by Add and Candidates when Build has not
// completed successfully yet.
var ErrNotBuilt = errors.New("blocking: index not built (call Build first)")

// IndexOptions sizes a CandidateIndex. The zero value is the right
// default everywhere: the dataset's own threshold, one shard per CPU and
// one worker per CPU.
type IndexOptions struct {
	// Threshold overrides the dataset's BlockThreshold when positive.
	Threshold float64
	// Shards is the posting-list shard count; zero or negative means
	// GOMAXPROCS. Shard count changes the internal token-id layout but
	// never the candidate set.
	Shards int
	// Workers bounds build and enumeration parallelism; zero or negative
	// means GOMAXPROCS, one forces the serial path.
	Workers int
}

// IndexStats is a point-in-time snapshot of a generator's index shape and
// its candidate funnel: posting-probe survivors → size- and count-filter
// survivors (exact verifications) → kept pairs, with Probed = SizeSkipped
// + CountSkipped + Verified. The funnel counters accumulate across
// Candidates calls.
type IndexStats struct {
	// Built reports whether Build has completed successfully.
	Built bool
	// Builds and Adds count full Build passes and incremental Add calls.
	Builds, Adds int64
	// RightRecords is the number of indexed right-side records, Tokens the
	// distinct-token dictionary size, Postings the total posting entries
	// across Shards shards.
	RightRecords, Tokens, Postings, Shards int
	// Probed counts distinct (left, right) candidates surfaced by posting
	// lists. Each is skipped before exact verification when a bound on
	// its overlap caps Jaccard below the threshold: SizeSkipped counts the
	// skips bound by min(nx, ny), the size filter; CountSkipped those
	// bound more tightly by the posting hits plus the right record's
	// unposted tokens, the count filter. Verified counts the exact
	// Jaccard computations, Kept the pairs at or above threshold.
	Probed, SizeSkipped, CountSkipped, Verified, Kept int64
}

// Generate builds gen and enumerates its candidates in one call — the
// one-shot path Block and the pool constructors use.
func Generate(ctx context.Context, gen CandidateGenerator) (*Result, error) {
	if err := gen.Build(ctx); err != nil {
		return nil, err
	}
	return gen.Candidates(ctx)
}

// cancelCheckStride bounds how many work items (records scanned, pairs
// verified) a worker processes between context checks, mirroring the
// core package's stride so cancellation latency is uniform across the
// stack.
const cancelCheckStride = 64

// parChunks runs body over [0, n) split into at most workers contiguous
// chunks. body must poll ctx itself on cancelCheckStride (the chunk
// bounds let it keep per-worker state such as candidate stamp arrays);
// parChunks reports the context error after all workers return. With one
// worker, or n below the chunk floor, body runs on the calling
// goroutine.
func parChunks(ctx context.Context, n, workers int, body func(lo, hi int)) error {
	if n == 0 {
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		body(0, n)
		return ctx.Err()
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, min((w+1)*chunk, n)
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	return ctx.Err()
}

// recordText is the blocking view of a record: the concatenation of its
// attribute values, exactly as the pre-index implementation joined them.
func recordText(r dataset.Record) string {
	return strings.Join(r.Values, " ")
}

// tokenizeTable tokenizes every record of t in parallel, honouring ctx.
func tokenizeTable(ctx context.Context, t *dataset.Table, workers int) ([][]string, error) {
	tok := textsim.Whitespace{}
	out := make([][]string, len(t.Rows))
	err := parChunks(ctx, len(t.Rows), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if (i-lo)%cancelCheckStride == 0 && ctx.Err() != nil {
				return
			}
			out[i] = tok.Tokens(recordText(t.Rows[i]))
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
