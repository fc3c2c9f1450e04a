package blocking

import (
	"context"
	"errors"
	"strings"

	"github.com/alem/alem/internal/dataset"
	"github.com/alem/alem/internal/par"
	"github.com/alem/alem/internal/textsim"
)

// CandidateGenerator is the candidate-generation contract the rest of the
// framework programs against: build an index over the dataset's tables,
// then enumerate the candidate pairs at or above the generator's Jaccard
// threshold.
//
// The contract all implementations share, pinned by the equivalence suite
// in property_test.go: Candidates returns exactly the pairs whose
// full-record token sets have Jaccard similarity at or above the
// threshold *and share at least one token*, ordered left-major with
// ascending right indices. (Two token-free records score Jaccard 1 but
// share no token and are never candidates; thresholds must be positive,
// so any other token-disjoint pair is below threshold anyway.)
//
// Build and Candidates honour context cancellation: every worker polls
// the context at least every par.Stride records or pairs, and a
// cancelled call returns the context's error and leaves any previously
// built index intact.
type CandidateGenerator interface {
	// Build (re)constructs the generator's index over the dataset it was
	// created for, as the tables stand. It must be called before
	// Candidates.
	Build(ctx context.Context) error
	// Candidates enumerates the candidate pairs of left × indexed-right.
	// It may be called repeatedly.
	Candidates(ctx context.Context) (*Result, error)
	// Stats reports index shape and filter-funnel counters.
	Stats() IndexStats
}

// ErrNotBuilt is returned by Candidates when Build has not completed
// successfully yet.
var ErrNotBuilt = errors.New("blocking: index not built (call Build first)")

// IndexOptions sizes a CandidateIndex. The zero value is the right
// default everywhere: the dataset's own threshold and one worker per CPU.
type IndexOptions struct {
	// Threshold overrides the dataset's BlockThreshold when positive.
	Threshold float64
	// Workers bounds build and enumeration parallelism; zero or negative
	// means GOMAXPROCS, one forces the serial path. The worker count never
	// changes the index or its candidates.
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
	// Builds counts completed Build passes.
	Builds int64
	// RightRecords is the number of indexed right-side records, Tokens the
	// distinct-token dictionary size, Postings the total posting entries.
	RightRecords, Tokens, Postings int
	// Probed counts distinct (left, right) candidates surfaced by posting
	// lists. Each is skipped before exact verification when a bound on
	// its overlap caps Jaccard below the threshold: SizeSkipped counts the
	// skips bound by min(nx, ny), the size filter; CountSkipped those
	// bound more tightly by the posting hits plus the right record's
	// unposted tokens, the count filter. Verified counts the exact
	// Jaccard computations, Kept the pairs at or above threshold.
	Probed, SizeSkipped, CountSkipped, Verified, Kept int64
}

// Accumulate adds o's counters (Builds, Postings and the funnel) into s,
// for totals over many indexes; the shape fields stay as s has them.
func (s *IndexStats) Accumulate(o IndexStats) {
	s.Builds += o.Builds
	s.Postings += o.Postings
	s.Probed += o.Probed
	s.SizeSkipped += o.SizeSkipped
	s.CountSkipped += o.CountSkipped
	s.Verified += o.Verified
	s.Kept += o.Kept
}

// Generate builds gen and enumerates its candidates in one call — the
// one-shot path Block and the pool constructors use.
func Generate(ctx context.Context, gen CandidateGenerator) (*Result, error) {
	if err := gen.Build(ctx); err != nil {
		return nil, err
	}
	return gen.Candidates(ctx)
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
	err := par.Blocks(ctx, len(t.Rows), workers, 2, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = tok.Tokens(recordText(t.Rows[i]))
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
