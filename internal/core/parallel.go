package core

import (
	"context"
	"runtime"
	"slices"
	"sync"
)

// parallelCutoff is the work-item count below which a fine-grained sweep
// (per-example prediction or scoring) is not worth the goroutine fan-out
// and the serial path is taken instead. Coarse-grained work — training a
// whole committee member per item — passes cutoff 2 instead: there the
// per-item cost dwarfs the fan-out overhead at any size.
const parallelCutoff = 256

// cancelCheckStride bounds how many work items a worker processes between
// context checks, so cancellation latency stays small without paying a
// per-item context read.
const cancelCheckStride = 64

// workerCount resolves a configured worker count: zero or negative means
// "all available CPUs", resolved on the machine doing the work rather
// than the one that wrote the config, which is what keeps snapshots
// portable.
func workerCount(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// parallelFor runs body(j) for every j in [0, n) across at most workers
// goroutines, splitting the index space into contiguous chunks. It is the
// deterministic fan-out substrate every parallel hot path (evaluation
// prediction, selector scoring, QBC committee training) is built on:
// body(j) must depend only on j and on state that is read-only during the
// sweep, so the result is bit-identical for every worker count — all
// shared randomness must be pre-drawn before the call.
//
// Below cutoff items (or with one worker) the sweep runs serially on the
// calling goroutine with the same cancellation discipline. Cancelling ctx
// stops every worker within cancelCheckStride items; the partial output
// is then meaningless and the context's error is returned.
func parallelFor(ctx context.Context, n, workers, cutoff int, body func(j int)) error {
	return forBlocks(ctx, n, workers, cutoff, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			body(j)
		}
	})
}

// parallelForRows sweeps candidates, a list of pool rows, in blocks:
// body(slots, rows) runs on consecutive blocks of up to cancelCheckStride
// candidate slots j, visited in ascending order of their pool row (ties,
// from a row listed twice, in ascending j), with rows[k] =
// candidates[slots[k]]. Every slot lands in exactly one block, so the
// body reads pool.X front to back instead of in the candidates' (often
// shuffled) order, and a learner can score a whole block in one call.
// Candidates already in ascending order are swept as they are (rows then
// aliases candidates); any other order is found by a counting sort over
// the O(poolLen) rows, without a comparison sort. The body must write
// only the output slots it is handed; then the results stay aligned with
// candidates and bit-identical at every worker count. The context is
// checked once per block, and the serial/parallel cutoff is
// parallelCutoff rows.
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
	return forBlocks(ctx, len(slots), workers, parallelCutoff, func(lo, hi int) {
		body(slots[lo:hi], rows[lo:hi])
	})
}

// forBlocks is the fan-out behind parallelFor and parallelForRows: it
// splits [0, n) into one contiguous chunk per worker and hands each
// worker's chunk to body in blocks [lo, hi) of at most cancelCheckStride
// items, checking ctx before each block. Below cutoff items, or with one
// worker, the blocks run serially on the calling goroutine.
func forBlocks(ctx context.Context, n, workers, cutoff int, body func(lo, hi int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if n < cutoff || workers == 1 {
		for lo := 0; lo < n; lo += cancelCheckStride {
			if err := ctx.Err(); err != nil {
				return err
			}
			body(lo, min(lo+cancelCheckStride, n))
		}
		return nil
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
			for b := lo; b < hi; b += cancelCheckStride {
				if ctx.Err() != nil {
					return
				}
				body(b, min(b+cancelCheckStride, hi))
			}
		}(lo, hi)
	}
	wg.Wait()
	return ctx.Err()
}
