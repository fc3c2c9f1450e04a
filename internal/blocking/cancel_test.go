package blocking

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/alem/alem/internal/dataset"
)

// countdownCtx reports Canceled after its budget of Err() polls is
// spent. Build and Candidates poll every par.Stride items, so varying the
// budget lands the cancellation in different pipeline stages
// deterministically — no timing races.
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

func cancelFixture(t *testing.T) *dataset.Dataset {
	t.Helper()
	r := rand.New(rand.NewSource(99))
	return dataset.NewDataset("cancel", hotVocabTable(r, 600, "L"), hotVocabTable(r, 600, "R"), nil, 0.34)
}

// TestBuildCancelledMidway cancels Build at poll budgets landing in
// every pipeline stage and checks the invariant the API documents: a
// cancelled Build returns the context error and leaves the index
// unbuilt, so Candidates still reports ErrNotBuilt.
func TestBuildCancelledMidway(t *testing.T) {
	d := cancelFixture(t)
	for _, polls := range []int64{0, 1, 7, 29, 61} {
		idx := NewCandidateIndex(d, IndexOptions{})
		err := idx.Build(newCountdownCtx(polls))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Build with %d-poll budget: err = %v, want context.Canceled", polls, err)
		}
		if idx.Stats().Built {
			t.Fatalf("Build with %d-poll budget marked the index built", polls)
		}
		if _, err := idx.Candidates(context.Background()); err != ErrNotBuilt {
			t.Fatalf("Candidates after cancelled Build: err = %v, want ErrNotBuilt", err)
		}
	}
}

// TestCancelledRebuildKeepsOldIndex pins the commit-at-the-end
// property: after a successful Build, a cancelled re-Build must leave
// the previous index fully usable and its candidate set unchanged.
func TestCancelledRebuildKeepsOldIndex(t *testing.T) {
	d := cancelFixture(t)
	idx := NewCandidateIndex(d, IndexOptions{})
	if err := idx.Build(context.Background()); err != nil {
		t.Fatal(err)
	}
	before, err := idx.Candidates(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Build(newCountdownCtx(7)); !errors.Is(err, context.Canceled) {
		t.Fatalf("re-Build: err = %v, want context.Canceled", err)
	}
	if !idx.Stats().Built {
		t.Fatal("cancelled re-Build unbuilt the index")
	}
	after, err := idx.Candidates(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertPairsEqual(t, "post-cancelled-rebuild", after.Pairs, before.Pairs)
}

// wordyTable generates n records of minToks..maxToks tokens drawn from a
// 40-token vocabulary, so records overlap heavily at moderate thresholds.
func wordyTable(r *rand.Rand, n, minToks, maxToks int, side string) *dataset.Table {
	tb := &dataset.Table{}
	for i := 0; i < n; i++ {
		toks := make([]string, minToks+r.Intn(maxToks-minToks+1))
		for j := range toks {
			toks[j] = fmt.Sprintf("w%02d", r.Intn(40))
		}
		tb.Rows = append(tb.Rows, dataset.Record{
			ID:     fmt.Sprintf("%s%d", side, i),
			Values: []string{strings.Join(toks, " ")},
		})
	}
	return tb
}

// TestRebuildOverChangedTable pins that Build commits every per-record
// structure together, at its end. The right table changes under a built
// index from long records (many tokens left out of each prefix) to more,
// shorter ones; a re-Build cancelled at every poll budget up to
// completion must leave the old candidate set intact, and the completed
// re-Build must match brute force over the new table. A per-record count
// published early, or kept from the first Build, bounds overlaps with
// the wrong record and loses pairs or indexes past its end.
func TestRebuildOverChangedTable(t *testing.T) {
	const threshold = 0.34
	r := rand.New(rand.NewSource(5))
	left := wordyTable(r, 80, 6, 14, "L")
	right := wordyTable(r, 80, 10, 18, "R")
	d := dataset.NewDataset("rebuild", left, right, nil, threshold)
	idx := NewCandidateIndex(d, IndexOptions{Threshold: threshold})
	if err := idx.Build(context.Background()); err != nil {
		t.Fatal(err)
	}
	before, err := idx.Candidates(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertPairsEqual(t, "initial", before.Pairs, bruteForceOrdered(d, threshold))

	right.Rows = wordyTable(r, 120, 2, 5, "R").Rows
	for polls := int64(0); ; polls++ {
		err := idx.Build(newCountdownCtx(polls))
		if err == nil {
			break
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("re-Build with %d-poll budget: err = %v, want context.Canceled", polls, err)
		}
		after, err := idx.Candidates(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		assertPairsEqual(t, fmt.Sprintf("after re-Build cancelled at %d polls", polls), after.Pairs, before.Pairs)
	}
	got, err := idx.Candidates(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertPairsEqual(t, "completed re-Build", got.Pairs, bruteForceOrdered(d, threshold))
}

// TestCandidatesCancelled checks enumeration honours cancellation on
// both generators.
func TestCandidatesCancelled(t *testing.T) {
	d := cancelFixture(t)
	for _, gen := range []CandidateGenerator{
		NewCandidateIndex(d, IndexOptions{}),
		NewNaive(d, 0),
	} {
		if err := gen.Build(context.Background()); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := gen.Candidates(ctx); !errors.Is(err, context.Canceled) {
			t.Errorf("%T.Candidates on cancelled ctx: err = %v, want context.Canceled", gen, err)
		}
		// The generator stays usable afterwards.
		if _, err := gen.Candidates(context.Background()); err != nil {
			t.Errorf("%T.Candidates after cancelled call: %v", gen, err)
		}
	}
}
