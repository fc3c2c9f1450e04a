package core

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"github.com/alem/alem/internal/dataset"
)

// pollBudgetCtx reports Canceled once its budget of Err() polls is
// spent, so a test can land the cancellation at any poll of a run.
type pollBudgetCtx struct {
	context.Context
	left atomic.Int64
}

func newPollBudgetCtx(polls int64) *pollBudgetCtx {
	c := &pollBudgetCtx{Context: context.Background()}
	c.left.Store(polls)
	return c
}

func (c *pollBudgetCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestNewPoolContextCancelled checks that NewPoolContext honours its
// context in both stages — candidate generation (the first poll) and
// featurization (the last poll) — and that an uncancelled call builds
// the same pool as NewPool.
func TestNewPoolContextCancelled(t *testing.T) {
	d, err := dataset.Load("beer", 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	count := newPollBudgetCtx(math.MaxInt32)
	got, err := NewPoolContext(count, d)
	if err != nil {
		t.Fatal(err)
	}
	want := NewPool(d)
	if got.Len() != want.Len() {
		t.Fatalf("NewPoolContext built %d pairs, NewPool %d", got.Len(), want.Len())
	}
	for i := range want.X {
		for j := range want.X[i] {
			if math.Float64bits(got.X[i][j]) != math.Float64bits(want.X[i][j]) {
				t.Fatalf("pair %d dim %d: NewPoolContext %v, NewPool %v", i, j, got.X[i][j], want.X[i][j])
			}
		}
	}
	polls := math.MaxInt32 - count.left.Load()
	for _, budget := range []int64{0, polls - 1} {
		if p, err := NewPoolContext(newPollBudgetCtx(budget), d); !errors.Is(err, context.Canceled) || p != nil {
			t.Fatalf("budget %d of %d polls: err = %v, want context.Canceled and no pool", budget, polls, err)
		}
	}
}
