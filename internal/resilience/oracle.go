// Package resilience is the framework's fault-tolerance layer: it makes
// labeler failures reproducible (FaultyOracle, a seeded deterministic
// fault injector), bounds them (Retrier: exponential backoff with
// jitter and a typed exhaustion error), and contains them (Breaker, the
// circuit breaker the serving layer wraps around the matcher). Both
// labeler wrappers are oracle.BatchOracles over an oracle.BatchOracle,
// so a fault chain reaches a core.Session like any other labeler.
//
// It also owns the durability primitives the checkpointing story builds
// on: LabelWAL, an fsync'd append-only log of granted labels, and
// WriteFileAtomic, the temp-file + fsync + rename discipline that keeps
// snapshots crash-consistent. core.Session wires these together so a
// killed process resumes bit-identically from Snapshot + WAL replay.
//
// The paper's benchmark (§3, §6.2) assumes an Oracle that always
// answers; this package is the production counterpart, where the labeler
// is a remote crowd or LLM endpoint that times out, errors and
// rate-limits.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/alem/alem/internal/dataset"
	"github.com/alem/alem/internal/oracle"
)

// ErrOracleExhausted is wrapped, with the final attempt's error, in the
// answer a Retrier gives once MaxAttempts have failed. Callers match it
// with errors.Is.
var ErrOracleExhausted = errors.New("resilience: oracle retries exhausted")

// errNoAnswer is the attempt error of a labeler call that returned no
// answer and no error (the BatchOracle contract's "remainder failed").
var errNoAnswer = errors.New("resilience: labeler returned no answer")

// Backoff shape: each retry doubles the previous delay up to maxDelay,
// plus a uniform jitter of up to jitter·delay that decorrelates retry
// storms without changing which attempt succeeds.
const (
	maxDelay = 2 * time.Second
	jitter   = 0.2
)

// RetryPolicy bounds how hard a Retrier leans on a failing labeler.
// The zero value picks the defaults documented per field.
type RetryPolicy struct {
	// MaxAttempts is the total tries per label query, first included
	// (default 4).
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt (default 50ms);
	// each further attempt doubles it, up to 2s.
	BaseDelay time.Duration
	// Sleep overrides the backoff clock, for tests (nil: a real timer
	// that races ctx.Done, so a cancelled run never waits out a backoff).
	Sleep func(time.Duration)
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	return p
}

// Retrier wraps a labeler with bounded retries of one pair per call:
// a failed attempt (a per-pair Err, or a call that returned no answer)
// is re-attempted with exponential backoff and jitter; once the budget
// is spent the call answers an Err wrapping ErrOracleExhausted, so the
// Session requeues the pair instead of aborting the run. Any answer the
// labeler gave — an abstention included — passes through unretried,
// even when ctx fired during the call, because it is paid for. Context
// errors are never retried: a cancelled run must stop immediately, and a
// deadline that already fired cannot succeed later.
type Retrier struct {
	inner  oracle.BatchOracle
	policy RetryPolicy
	rng    *rand.Rand
	mu     sync.Mutex // guards rng (jitter draws only; never affects outcomes)

	retries   int
	exhausted int
}

// NewRetrier wraps inner with the policy. seed drives only the backoff
// jitter, so it has no effect on which queries succeed.
func NewRetrier(inner oracle.BatchOracle, policy RetryPolicy, seed int64) *Retrier {
	return &Retrier{inner: inner, policy: policy.withDefaults(), rng: rand.New(rand.NewSource(seed))}
}

// LabelBatch implements oracle.BatchOracle with retry, answering
// pairs[0] only.
func (r *Retrier) LabelBatch(ctx context.Context, pairs []dataset.PairKey) ([]oracle.Answer, error) {
	if len(pairs) == 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p := pairs[0]
	var lastErr error
	delay := r.policy.BaseDelay
	for attempt := 1; attempt <= r.policy.MaxAttempts; attempt++ {
		if attempt > 1 {
			r.retries++
			if !r.backoff(ctx, delay) {
				return nil, ctx.Err()
			}
			delay = min(2*delay, maxDelay)
		}
		answers, err := r.inner.LabelBatch(ctx, pairs[:1])
		if len(answers) > 0 && answers[0].Err == nil {
			return answers[:1], nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		switch {
		case len(answers) > 0:
			lastErr = answers[0].Err
		case err != nil:
			lastErr = err
		default:
			lastErr = errNoAnswer
		}
	}
	r.exhausted++
	return []oracle.Answer{{Err: fmt.Errorf("%w after %d attempts on pair (%d,%d): %w",
		ErrOracleExhausted, r.policy.MaxAttempts, p.L, p.R, lastErr)}}, nil
}

// backoff sleeps the jittered delay, returning false if ctx fired first.
func (r *Retrier) backoff(ctx context.Context, delay time.Duration) bool {
	r.mu.Lock()
	jittered := time.Duration(float64(delay) * (1 + jitter*r.rng.Float64()))
	r.mu.Unlock()
	if r.policy.Sleep != nil {
		r.policy.Sleep(jittered)
		return ctx.Err() == nil
	}
	timer := time.NewTimer(jittered)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// Queries implements oracle.BatchOracle.
func (r *Retrier) Queries() int { return r.inner.Queries() }

// Retries reports how many extra attempts the policy has paid so far.
func (r *Retrier) Retries() int { return r.retries }

// Exhausted reports how many label queries burned their whole budget.
func (r *Retrier) Exhausted() int { return r.exhausted }

// UnwrapOracle exposes the wrapped labeler to the session's hook search.
func (r *Retrier) UnwrapOracle() any { return r.inner }
