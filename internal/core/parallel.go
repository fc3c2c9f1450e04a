package core

import (
	"context"
	"runtime"
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
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if n < cutoff || workers == 1 {
		for j := 0; j < n; j++ {
			if j%cancelCheckStride == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			body(j)
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
			for j := lo; j < hi; j++ {
				if (j-lo)%cancelCheckStride == 0 && ctx.Err() != nil {
					return
				}
				body(j)
			}
		}(lo, hi)
	}
	wg.Wait()
	return ctx.Err()
}

// parallelForRows is parallelFor over candidates, a list of pool rows:
// body(j) still runs once for every j in [0, len(candidates)), but the
// sweep visits the j in ascending order of their pool row (ties, from a
// row listed twice, in ascending j), so the body reads pool.X front to
// back instead of in the candidates' (often shuffled) order. A counting
// sort over the O(poolLen) rows finds that order without a comparison
// sort. body(j) must write only its own output slot j; then the results
// stay aligned with candidates and bit-identical at every worker count.
func parallelForRows(ctx context.Context, poolLen int, candidates []int, workers int, body func(j int)) error {
	next := make([]int, poolLen+1) // next[row] = next free slot of order for row
	for _, row := range candidates {
		next[row+1]++
	}
	for row := 0; row < poolLen; row++ {
		next[row+1] += next[row]
	}
	order := make([]int, len(candidates))
	for j, row := range candidates {
		order[next[row]] = j
		next[row]++
	}
	return parallelFor(ctx, len(order), workers, parallelCutoff, func(t int) {
		body(order[t])
	})
}
