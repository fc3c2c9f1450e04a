// Package par is the one data-parallel fan-out every sweep in the
// pipeline runs on: candidate generation, featurization, and the active
// learning engine's prediction, scoring and committee training.
//
// A sweep over [0, n) is split into at most one contiguous chunk per
// worker, and runs serially on the calling goroutine below the caller's
// cutoff or with one worker; the chunk bounds depend only on n and the
// worker count, so a body that writes only its own indices gives the
// same result at every worker count. Bodies that keep per-worker state
// (stamp arrays, kernels, arenas) take a whole chunk through Chunks and
// poll their context every Stride items themselves; every other body
// takes blocks of at most Stride items through Blocks, which polls
// before each block.
package par

import (
	"context"
	"runtime"
	"sync"
)

// Stride bounds how many items a worker processes between context
// checks, so cancellation latency stays small without a per-item
// context read.
const Stride = 64

// Workers resolves a configured worker count: zero or negative means
// GOMAXPROCS, resolved on the machine doing the work rather than the one
// that wrote the config.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Chunks runs body over [0, n) split into at most Workers(workers)
// contiguous chunks, one goroutine each. Below cutoff items, or with one
// worker, body runs once over [0, n) on the calling goroutine; cutoff 2
// fans out any sweep of two or more items. body must poll ctx every
// Stride items; Chunks returns ctx.Err() once every chunk has returned.
// A nil ctx is treated as context.Background().
func Chunks(ctx context.Context, n, workers, cutoff int, body func(lo, hi int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	workers = Workers(workers)
	if n < cutoff || workers == 1 {
		if n > 0 {
			body(0, n)
		}
		return ctx.Err()
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, min(lo+chunk, n))
	}
	wg.Wait()
	return ctx.Err()
}

// Blocks is Chunks for bodies without per-worker state: it hands each
// chunk [lo, hi) to body in blocks [lo+k·Stride, min(lo+(k+1)·Stride,
// hi)), checking ctx before each block, and returns ctx.Err() once
// every chunk has returned.
func Blocks(ctx context.Context, n, workers, cutoff int, body func(lo, hi int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	return Chunks(ctx, n, workers, cutoff, func(lo, hi int) {
		for b := lo; b < hi; b += Stride {
			if ctx.Err() != nil {
				return
			}
			body(b, min(b+Stride, hi))
		}
	})
}
