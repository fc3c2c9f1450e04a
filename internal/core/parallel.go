package core

import (
	"context"
	"slices"

	"github.com/alem/alem/internal/par"
)

// parallelCutoff is the work-item count below which a fine-grained sweep
// (per-example prediction or scoring) is not worth the goroutine fan-out
// and the serial path is taken instead. Coarse-grained work — training a
// whole committee member per item — passes cutoff 2 instead: there the
// per-item cost dwarfs the fan-out overhead at any size.
const parallelCutoff = 256

// parallelFor runs body(j) for every j in [0, n) on par.Blocks, the
// deterministic fan-out substrate: at most workers goroutines, each
// sweeping one contiguous chunk block by block. The engine's per-item
// sweeps (per-row selector scoring, QBC committee training) use it.
// body(j) must depend only on j and on state that is read-only during
// the sweep, so the result is bit-identical for every worker count —
// all shared randomness must be pre-drawn before the call.
//
// Below cutoff items (or with one worker) the sweep runs serially on the
// calling goroutine with the same cancellation discipline. Cancelling ctx
// stops every worker within par.Stride items; the partial output is then
// meaningless and the context's error is returned.
func parallelFor(ctx context.Context, n, workers, cutoff int, body func(j int)) error {
	return par.Blocks(ctx, n, workers, cutoff, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			body(j)
		}
	})
}

// parallelForRows sweeps candidates, a list of pool rows, in blocks:
// body(slots, rows) runs on consecutive blocks of up to par.Stride
// candidate slots j, visited in ascending order of their pool row (ties,
// from a row listed twice, in ascending j), with rows[k] =
// candidates[slots[k]]. Every slot lands in exactly one block, so the
// body reads pool.X front to back instead of in the candidates' (often
// shuffled) order, and a learner can score a whole block in one call.
// Candidates already in ascending order are swept as they are (rows then
// aliases candidates); any other order is found by a counting sort over
// the O(poolLen) rows, without a comparison sort. The body must write
// only the output slots it is handed; then the results stay aligned with
// candidates and bit-identical at every worker count. The blocks come
// from par.Blocks, which checks the context once per block, and the
// serial/parallel cutoff is parallelCutoff rows.
func parallelForRows(ctx context.Context, poolLen int, candidates []int, workers int, body func(slots, rows []int)) error {
	slots := make([]int, len(candidates))
	rows := candidates
	if slices.IsSorted(candidates) {
		for j := range slots {
			slots[j] = j
		}
	} else {
		next := make([]int, poolLen+1) // next[row] = next free position of row in the order
		for _, row := range candidates {
			next[row+1]++
		}
		for row := 0; row < poolLen; row++ {
			next[row+1] += next[row]
		}
		rows = make([]int, len(candidates))
		for j, row := range candidates {
			slots[next[row]], rows[next[row]] = j, row
			next[row]++
		}
	}
	return par.Blocks(ctx, len(slots), workers, parallelCutoff, func(lo, hi int) {
		body(slots[lo:hi], rows[lo:hi])
	})
}
