package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/alem/alem/internal/dataset"
	"github.com/alem/alem/internal/oracle"
)

// ErrInjected marks an error produced by the fault injector; chaos tests
// match it with errors.Is to separate injected faults from real ones.
var ErrInjected = errors.New("resilience: injected fault")

// FaultyOracle wraps a labeler with deterministic, seeded fault
// injection, one pair per call. Each transient-fault decision is an
// oracle.PairDraw of (seed, pair, that pair's attempt ordinal): two
// injectors built with the same seed, driven with the same per-pair
// attempt sequence, make identical decisions — which is what lets the
// chaos suite assert a killed-and-resumed run is bit-identical to an
// uninterrupted one. At rate 1 every attempt fails: a dead labeler.
//
// The per-pair attempt ordinals are process-local state. A resumed
// process replays WAL-cached labels without re-attempting them, which is
// safe (a granted pair is never queried again), so decisions stay
// aligned as long as no pair exhausted its retry budget before the
// checkpoint (an exhausted pair would be re-queried later with a reset
// ordinal). Chaos tests assert Retrier.Exhausted() == 0 to pin that
// precondition.
//
// Faults fire BEFORE the inner labeler is asked, so failed attempts
// never advance the inner labeler's query count or RNG state.
type FaultyOracle struct {
	inner oracle.BatchOracle
	rate  float64
	seed  int64

	mu       sync.Mutex
	attempts map[dataset.PairKey]int // per-pair attempt ordinals
	calls    int
	injected int
}

// NewFaultyOracle wraps inner with seeded fault injection: each attempt
// fails with probability rate in [0, 1].
func NewFaultyOracle(inner oracle.BatchOracle, rate float64, seed int64) *FaultyOracle {
	return &FaultyOracle{inner: inner, rate: rate, seed: seed, attempts: map[dataset.PairKey]int{}}
}

// LabelBatch implements oracle.BatchOracle, answering pairs[0] only: an
// injected fault is that answer's Err, otherwise the inner labeler
// answers.
func (f *FaultyOracle) LabelBatch(ctx context.Context, pairs []dataset.PairKey) ([]oracle.Answer, error) {
	if len(pairs) == 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p := pairs[0]
	f.mu.Lock()
	f.calls++
	f.attempts[p]++
	attempt := f.attempts[p]
	fault := f.rate > 0 && oracle.PairDraw(f.seed, p, attempt) < f.rate
	if fault {
		f.injected++
	}
	f.mu.Unlock()
	if fault {
		return []oracle.Answer{{Err: fmt.Errorf("%w: transient labeler error (pair %d,%d attempt %d)",
			ErrInjected, p.L, p.R, attempt)}}, nil
	}
	answers, err := f.inner.LabelBatch(ctx, pairs[:1])
	return answers[:min(len(answers), 1)], err
}

// Queries implements oracle.BatchOracle: the attempts that reached the
// inner labeler.
func (f *FaultyOracle) Queries() int { return f.inner.Queries() }

// Injected reports how many faults have been injected so far.
func (f *FaultyOracle) Injected() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// Calls reports the total attempts seen (successful or faulted).
func (f *FaultyOracle) Calls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

// UnwrapOracle exposes the wrapped labeler to the session's hook search.
func (f *FaultyOracle) UnwrapOracle() any { return f.inner }
