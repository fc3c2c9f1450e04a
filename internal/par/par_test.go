package par

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// sweeps are the two entry points; every test runs both.
var sweeps = []struct {
	name string
	run  func(ctx context.Context, n, workers, cutoff int, body func(lo, hi int)) error
}{
	{"Chunks", Chunks},
	{"Blocks", Blocks},
}

// pollCounter counts its Err() polls.
type pollCounter struct {
	context.Context
	polls atomic.Int64
}

func (c *pollCounter) Err() error {
	c.polls.Add(1)
	return c.Context.Err()
}

// wantChunks is the chunking contract: one call over [0, n) below cutoff
// or at one worker, otherwise contiguous chunks of ceil(n/w) items (the
// last possibly shorter) for w = Workers(workers).
func wantChunks(n, workers, cutoff int) [][2]int {
	if n == 0 {
		return nil
	}
	w := Workers(workers)
	if n < cutoff || w == 1 {
		return [][2]int{{0, n}}
	}
	var out [][2]int
	size := (n + w - 1) / w
	for lo := 0; lo < n; lo += size {
		out = append(out, [2]int{lo, min(lo+size, n)})
	}
	return out
}

// TestSweepMatchesSerial pins what every caller relies on for
// worker-count invariance: every index runs exactly once, in at most
// Workers(workers) contiguous chunks whose bounds depend only on n, the
// worker count and the cutoff; below the cutoff or at one worker the
// body runs once over [0, n) on the calling goroutine. Blocks hands each
// chunk over in blocks of at most Stride items starting at lo + k·Stride,
// polling ctx once before each block; Chunks polls it only once, after
// every chunk has returned.
func TestSweepMatchesSerial(t *testing.T) {
	const cutoff = 256
	for _, sw := range sweeps {
		for _, cut := range []int{2, cutoff} {
			for _, n := range []int{0, 1, 2, Stride + 1, cutoff - 1, cutoff, 3*cutoff + 17} {
				for _, workers := range []int{0, 1, 2, 7} {
					ctx := &pollCounter{Context: context.Background()}
					var mu sync.Mutex
					var calls [][2]int
					runs := make([]int, n)
					if err := sw.run(ctx, n, workers, cut, func(lo, hi int) {
						mu.Lock()
						defer mu.Unlock()
						calls = append(calls, [2]int{lo, hi})
						for i := lo; i < hi; i++ {
							runs[i]++
						}
					}); err != nil {
						t.Fatal(err)
					}
					for i, r := range runs {
						if r != 1 {
							t.Fatalf("%s cutoff=%d n=%d workers=%d: index %d ran %d times, want 1", sw.name, cut, n, workers, i, r)
						}
					}
					chunks := wantChunks(n, workers, cut)
					want := chunks
					if sw.name == "Blocks" {
						want = nil
						for _, c := range chunks {
							for lo := c[0]; lo < c[1]; lo += Stride {
								want = append(want, [2]int{lo, min(lo+Stride, c[1])})
							}
						}
					}
					slices.SortFunc(calls, func(a, b [2]int) int { return a[0] - b[0] })
					if !slices.Equal(calls, want) {
						t.Fatalf("%s cutoff=%d n=%d workers=%d: body called over %v, want %v", sw.name, cut, n, workers, calls, want)
					}
					if len(chunks) > Workers(workers) {
						t.Fatalf("n=%d workers=%d: %d chunks, want at most %d", n, workers, len(chunks), Workers(workers))
					}
					wantPolls := int64(1) // the final ctx.Err()
					if sw.name == "Blocks" {
						wantPolls += int64(len(want))
					}
					if got := ctx.polls.Load(); got != wantPolls {
						t.Fatalf("%s cutoff=%d n=%d workers=%d: %d polls, want %d", sw.name, cut, n, workers, got, wantPolls)
					}
				}
			}
		}
	}
}

// TestBlocksPollBeforeEachBlock checks a serial Blocks sweep polls ctx
// right before each block, not after it.
func TestBlocksPollBeforeEachBlock(t *testing.T) {
	ctx := &pollCounter{Context: context.Background()}
	k := int64(0)
	if err := Blocks(ctx, 5*Stride+3, 1, 2, func(lo, hi int) {
		k++
		if got := ctx.polls.Load(); got != k {
			t.Fatalf("block [%d, %d) ran after %d polls, want %d", lo, hi, got, k)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestSweepCancelled checks both entry points return the context's error
// and stop every worker within one Stride of the cancellation:
// pre-cancelled, and cancelled by the first item that runs. Only items
// that start after cancel has returned count against the bound. A
// Chunks body polls ctx every Stride items itself, as its contract asks.
func TestSweepCancelled(t *testing.T) {
	const n, workers = 10 * 256, 4
	for _, sw := range sweeps {
		for _, pre := range []bool{true, false} {
			ctx, cancel := context.WithCancel(context.Background())
			var ran, after atomic.Int64
			var cancelled atomic.Bool
			stop := func() {
				cancel()
				cancelled.Store(true)
			}
			if pre {
				stop()
			}
			item := func() {
				if cancelled.Load() {
					after.Add(1)
				}
				if ran.Add(1) == 1 {
					stop()
				}
			}
			body := func(lo, hi int) {
				for i := lo; i < hi; i++ {
					item()
				}
			}
			if sw.name == "Chunks" {
				body = func(lo, hi int) {
					for i := lo; i < hi; i++ {
						if (i-lo)%Stride == 0 && ctx.Err() != nil {
							return
						}
						item()
					}
				}
			}
			err := sw.run(ctx, n, workers, 256, body)
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s pre-cancelled=%v: err = %v, want context.Canceled", sw.name, pre, err)
			}
			if got := after.Load(); got > workers*Stride {
				t.Errorf("%s pre-cancelled=%v: %d items ran after cancellation, want <= %d", sw.name, pre, got, workers*Stride)
			}
		}
	}
}

// TestSweepNilContext checks a nil context sweeps like
// context.Background().
func TestSweepNilContext(t *testing.T) {
	for _, sw := range sweeps {
		var ran atomic.Int64
		if err := sw.run(nil, 3*256+17, 2, 256, func(lo, hi int) { ran.Add(int64(hi - lo)) }); err != nil {
			t.Fatalf("%s: err = %v", sw.name, err)
		}
		if got := ran.Load(); got != 3*256+17 {
			t.Fatalf("%s: %d items ran, want %d", sw.name, got, 3*256+17)
		}
	}
}
