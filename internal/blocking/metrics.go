package blocking

import (
	"sync/atomic"

	"github.com/alem/alem/internal/obs"
)

// Process-wide candidate-generation totals, accumulated by every
// CandidateIndex regardless of which registry (if any) scrapes them.
// They are registered as scrape-time callbacks so the hot paths pay one
// atomic add and no registry lookups.
var (
	totalBuilds       atomic.Int64
	totalAdds         atomic.Int64
	totalPostings     atomic.Int64
	totalProbed       atomic.Int64
	totalSizeSkipped  atomic.Int64
	totalCountSkipped atomic.Int64
	totalVerified     atomic.Int64
	totalKept         atomic.Int64
)

// RegisterMetrics exposes the package's candidate-generation counters on
// r: index build/ingest volume and the probe → size/count filter →
// verify → keep funnel. The serving layer registers them on its /metrics
// registry; any other registry works the same way.
func RegisterMetrics(r *obs.Registry) {
	r.CounterFunc("alem_blocking_index_builds_total",
		"Full candidate-index Build passes.", totalBuilds.Load)
	r.CounterFunc("alem_blocking_index_adds_total",
		"Records streamed into candidate indexes via incremental Add.", totalAdds.Load)
	r.CounterFunc("alem_blocking_index_postings_total",
		"Posting-list entries written by Build and Add.", totalPostings.Load)
	r.CounterFunc("alem_blocking_candidates_probed_total",
		"Distinct candidate pairs surfaced by posting-list probes.", totalProbed.Load)
	r.CounterFunc("alem_blocking_size_filter_skipped_total",
		"Probed candidates pruned by the distinct-token-count size filter, min(nx, ny) being the binding overlap bound.", totalSizeSkipped.Load)
	r.CounterFunc("alem_blocking_count_filter_skipped_total",
		"Probed candidates pruned by the posting-hit count filter, bound below the size filter's min(nx, ny).", totalCountSkipped.Load)
	r.CounterFunc("alem_blocking_pairs_verified_total",
		"Candidates verified with exact Jaccard.", totalVerified.Load)
	r.CounterFunc("alem_blocking_pairs_kept_total",
		"Verified pairs kept at or above the blocking threshold.", totalKept.Load)
}
