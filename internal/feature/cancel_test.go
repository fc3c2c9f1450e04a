package feature

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
)

// countdownCtx reports Canceled after its budget of Err() polls is
// spent. ExtractPairsContext polls on cancelCheckStride, so varying the
// budget lands the cancellation in every stage — interning either side,
// or any stride of the extraction loop — deterministically.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func newCountdownCtx(polls int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(polls)
	return c
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestExtractPairsContextCancelled cancels extraction at every poll of
// a run and checks that the call returns the context's error, and that
// the extractor stays usable: a full run afterwards still matches the
// uncancelled vectors bit for bit.
func TestExtractPairsContextCancelled(t *testing.T) {
	d, pairs := equivDataset(t)
	e := NewExtractor(d.Left.Schema)
	want := e.ExtractPairsWorkers(d, pairs, 1)
	for _, workers := range []int{1, 2} {
		// Count the polls of an uncancelled run.
		count := newCountdownCtx(math.MaxInt32)
		if _, err := e.extractPairs(count, d, pairs, workers); err != nil {
			t.Fatal(err)
		}
		polls := math.MaxInt32 - count.left.Load()
		if polls < int64(len(pairs)/cancelCheckStride) {
			t.Fatalf("workers=%d: %d polls for %d pairs, want one per %d pairs at least",
				workers, polls, len(pairs), cancelCheckStride)
		}
		for budget := int64(0); budget < polls; budget++ {
			X, err := e.extractPairs(newCountdownCtx(budget), d, pairs, workers)
			if !errors.Is(err, context.Canceled) || X != nil {
				t.Fatalf("workers=%d budget %d/%d: err = %v (%d vectors), want context.Canceled",
					workers, budget, polls, err, len(X))
			}
		}
		got, err := e.ExtractPairsContext(context.Background(), d, pairs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			for j := range want[i] {
				if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
					t.Fatalf("after cancelled runs, pair %d dim %d = %v, want %v", i, j, got[i][j], want[i][j])
				}
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.ExtractPairsContext(ctx, d, pairs); !errors.Is(err, context.Canceled) {
		t.Fatalf("ExtractPairsContext on a cancelled context: err = %v, want context.Canceled", err)
	}
}
