package resilience

import (
	"context"

	"github.com/alem/alem/internal/dataset"
	"github.com/alem/alem/internal/oracle"
)

// batchFallible adapts a per-pair FallibleOracle chain to the
// oracle.BatchOracle contract by answering one pair per call: the
// session applies and journals that answer before it submits the rest
// of the round, so every label is durable before the next query and a
// stateful labeler draws in pair order around WAL-cached answers. A
// per-pair error becomes Answer.Err (the session requeues the pair) and
// a context error aborts the call. Answers carry zero cost — pricing
// belongs to genuinely billed oracles, not the resilience plumbing.
type batchFallible struct {
	inner FallibleOracle
}

// BatchOf lifts a FallibleOracle — a classic oracle under Wrap, or a
// Retrier over a FaultyOracle — into the BatchOracle interface a
// core.Session labels through.
func BatchOf(fo FallibleOracle) oracle.BatchOracle { return &batchFallible{inner: fo} }

// LabelBatch implements oracle.BatchOracle, answering pairs[0] only.
func (b *batchFallible) LabelBatch(ctx context.Context, pairs []dataset.PairKey) ([]oracle.Answer, error) {
	if len(pairs) == 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	lab, err := b.inner.Label(ctx, pairs[0])
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return []oracle.Answer{{Err: err}}, nil
	}
	v := oracle.VerdictNonMatch
	if lab {
		v = oracle.VerdictMatch
	}
	return []oracle.Answer{{Verdict: v}}, nil
}

// Queries implements oracle.BatchOracle.
func (b *batchFallible) Queries() int { return b.inner.Queries() }

// MaxAnswerCost implements oracle.Priced: the resilience chain is free.
func (b *batchFallible) MaxAnswerCost() float64 { return 0 }

// UnwrapOracle exposes the wrapped chain for StatefulOf.
func (b *batchFallible) UnwrapOracle() any { return b.inner }
