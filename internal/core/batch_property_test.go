package core

// Property tests for the costly-oracle engine over a sweep of seeded
// abstain/fault/price mixes: whatever the mix, (1) no pair is ever asked
// to abstain past its cutoff, (2) the ledger never exceeds the dollar
// budget at any event boundary, and (3) the run terminates with a typed
// reason from the budget/fault vocabulary within a bounded step count.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/alem/alem/internal/dataset"
	"github.com/alem/alem/internal/linear"
	"github.com/alem/alem/internal/oracle"
)

// abstainAudit wraps a BatchOracle and tallies the abstentions delivered
// per pair — the oracle-side view the cutoff property is checked
// against: once the engine retires a pair it must never submit it again,
// so no pair's tally can pass the cutoff.
type abstainAudit struct {
	inner   oracle.BatchOracle
	perPair map[dataset.PairKey]int
}

func (a *abstainAudit) LabelBatch(ctx context.Context, pairs []dataset.PairKey) ([]oracle.Answer, error) {
	out, err := a.inner.LabelBatch(ctx, pairs)
	for i, ans := range out {
		if ans.Err == nil && ans.Verdict == oracle.VerdictAbstain {
			a.perPair[pairs[i]]++
		}
	}
	return out, err
}

func (a *abstainAudit) Queries() int      { return a.inner.Queries() }
func (a *abstainAudit) UnwrapOracle() any { return a.inner }

func TestBatchOracleBudgetAndAbstainProperties(t *testing.T) {
	type mix struct {
		abstain, fail float64
		maxDollars    float64
		cutoff        int
	}
	mixes := []mix{
		{abstain: 0, fail: 0, maxDollars: 0},
		{abstain: 0.3, fail: 0, maxDollars: 0},
		{abstain: 0.3, fail: 0, maxDollars: 0.05},
		{abstain: 0.6, fail: 0, maxDollars: 0.08, cutoff: 1},
		{abstain: 0.2, fail: 0.2, maxDollars: 0},
		{abstain: 0.4, fail: 0.1, maxDollars: 0.04, cutoff: 2},
		{abstain: 0, fail: 0.3, maxDollars: 0.1},
	}
	allowed := map[StopReason]bool{
		StopBudget:          true,
		StopBudgetExhausted: true,
		StopOracleFailed:    true,
	}
	for mi, m := range mixes {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("mix=%d/seed=%d", mi, seed), func(t *testing.T) {
				pool := syntheticPool(300, seed)
				sim := simPoolOracle(pool, oracle.LLMSimConfig{
					AbstainRate: m.abstain,
					NoiseRate:   0.1,
					FailRate:    m.fail,
					Price:       oracle.PriceTable{PerLabel: 0.002, PerAbstain: 0.0005},
				}, seed*100+int64(mi))
				audit := &abstainAudit{inner: sim, perPair: map[dataset.PairKey]int{}}
				cfg := Config{
					Seed: seed, MaxLabels: 60,
					MaxDollars: m.maxDollars, AbstainCutoff: m.cutoff,
				}
				s, err := NewBatchSession(pool, linear.NewSVM(seed), Margin{}, audit, cfg)
				if err != nil {
					t.Fatal(err)
				}

				// Property 2: spent never exceeds the budget, checked at
				// every event the engine emits.
				s.AddObserver(ObserverFunc(func(Event) {
					if m.maxDollars > 0 && s.Ledger().Spent > m.maxDollars+budgetEps {
						t.Errorf("ledger overspent mid-run: %.9f > %.9f", s.Ledger().Spent, m.maxDollars)
					}
				}))

				// Property 3: bounded termination with a typed reason.
				const maxSteps = 500
				done := false
				for i := 0; i < maxSteps && !done; i++ {
					var err error
					done, err = s.Step(context.Background())
					if err != nil && s.Reason() != StopOracleFailed {
						t.Fatalf("step error outside the fault vocabulary: %v (reason %v)", err, s.Reason())
					}
				}
				if !done {
					t.Fatalf("run did not terminate within %d steps", maxSteps)
				}
				if !allowed[s.Reason()] {
					t.Errorf("terminated with reason %v, want one of StopBudget/StopBudgetExhausted/StopOracleFailed",
						s.Reason())
				}

				// Property 1: no pair was asked past its abstain cutoff.
				cutoff := m.cutoff
				if cutoff == 0 {
					cutoff = DefaultAbstainCutoff
				}
				for p, n := range audit.perPair {
					if n > cutoff {
						t.Errorf("pair (%d,%d) abstained %d times, cutoff is %d", p.L, p.R, n, cutoff)
					}
				}

				// Ledger internal consistency at the end of every run.
				led := s.Ledger()
				if led.Answers != led.Labels+led.Abstains {
					t.Errorf("ledger answers %d != labels %d + abstains %d", led.Answers, led.Labels, led.Abstains)
				}
				if led.Labels != s.Result().LabelsUsed {
					t.Errorf("ledger labels %d != LabelsUsed %d", led.Labels, s.Result().LabelsUsed)
				}
				if m.maxDollars > 0 && led.Spent > m.maxDollars+budgetEps {
					t.Errorf("final ledger overspent: %.9f > %.9f", led.Spent, m.maxDollars)
				}
			})
		}
	}
}

// prefixOracle answers at most per pairs of each LabelBatch call from a
// per-pair oracle, padding its answer with bogus ones past the pairs it
// was given (which the session must ignore); with per 0 it answers
// nothing. calls records each call's size.
type prefixOracle struct {
	inner oracle.Oracle
	per   int
	calls []int
}

func (p *prefixOracle) LabelBatch(_ context.Context, pairs []dataset.PairKey) ([]oracle.Answer, error) {
	p.calls = append(p.calls, len(pairs))
	if p.per == 0 {
		return nil, nil
	}
	out := make([]oracle.Answer, p.per)
	for j := range out {
		out[j].Verdict = oracle.VerdictMatch
		if j < len(pairs) && !p.inner.Label(pairs[j]) {
			out[j].Verdict = oracle.VerdictNonMatch
		}
	}
	return out, nil
}

func (p *prefixOracle) Queries() int { return p.inner.Queries() }

// TestBatchOraclePrefixContract pins LabelBatch's prefix contract: a
// labeler answering three pairs per call has each remainder submitted
// again and ends exactly where the one-pair-per-call path does, while
// one that answers nothing without an error turns the whole round into
// faults and stalls.
func TestBatchOraclePrefixContract(t *testing.T) {
	pool := syntheticPool(300, 43)
	cfg := Config{Seed: 43, MaxLabels: 60}
	ref := mustSession(t, pool, linear.NewSVM(43), Margin{}, cfg)
	refRes, err := ref.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	threes := &prefixOracle{inner: poolOracle(pool), per: 3}
	s, err := NewBatchSession(pool, linear.NewSVM(43), Margin{}, threes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	curvesEqual(t, refRes.Curve, res.Curve)
	if threes.Queries() != refRes.LabelsUsed || s.Ledger() != ref.Ledger() {
		t.Errorf("%d queries, ledger %+v; want %d and %+v", threes.Queries(), s.Ledger(), refRes.LabelsUsed, ref.Ledger())
	}
	if want := []int{30, 27, 24, 21, 18, 15, 12, 9, 6, 3, 10, 7, 4, 1}; !reflect.DeepEqual(threes.calls[:len(want)], want) {
		t.Errorf("call sizes start %v, want %v", threes.calls[:len(want)], want)
	}

	mute := &prefixOracle{inner: poolOracle(pool)}
	s, err = NewBatchSession(pool, linear.NewSVM(43), Margin{}, mute, cfg)
	if err != nil {
		t.Fatal(err)
	}
	faults := 0
	s.AddObserver(ObserverFunc(func(e Event) {
		if f, ok := e.(OracleFault); ok {
			faults++
			if !strings.Contains(f.Err.Error(), "answered 0 of 30 pairs") {
				t.Errorf("fault err = %v", f.Err)
			}
		}
	}))
	if _, err := s.Run(context.Background()); !errors.Is(err, ErrLabelingStalled) || s.Reason() != StopOracleFailed {
		t.Fatalf("err = %v, reason %v; want a stalled run", err, s.Reason())
	}
	if faults != 30 || len(mute.calls) != 1 {
		t.Errorf("%d faults in %d calls, want 30 in one", faults, len(mute.calls))
	}
}
