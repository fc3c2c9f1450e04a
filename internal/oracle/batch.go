package oracle

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"

	"github.com/alem/alem/internal/dataset"
)

// Verdict is a batch labeler's per-pair answer class. Unlike the boolean
// Oracle contract, a batched labeler may decline to answer: modern
// LLM-style labelers abstain on pairs they are not confident about, and
// the engine requeues those pairs instead of treating them as labels.
type Verdict int8

const (
	// VerdictNonMatch answers "these records are different entities".
	VerdictNonMatch Verdict = iota
	// VerdictMatch answers "these records are the same entity".
	VerdictMatch
	// VerdictAbstain declines to answer. An abstention is still an
	// acknowledged (and typically billed) response — the labeler did the
	// work and said "unsure" — which is exactly why abstain-heavy oracles
	// need budget accounting.
	VerdictAbstain
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case VerdictNonMatch:
		return "non-match"
	case VerdictMatch:
		return "match"
	case VerdictAbstain:
		return "abstain"
	}
	return "unknown"
}

// Answer is one pair's outcome within a batch: a verdict plus the cost
// the labeler billed for it, or a per-pair error. An errored answer is
// not billed and carries no verdict — the pair simply was not labeled
// this round (rate limit, content filter, malformed response).
type Answer struct {
	Verdict Verdict
	// Cost is the dollars billed for this answer (0 for free oracles and
	// for errored answers).
	Cost float64
	// Err, when non-nil, marks the answer failed; Verdict and Cost are
	// meaningless then.
	Err error
}

// BatchOracle is the costly-labeler contract: whole batches of pairs are
// submitted in one call (amortizing the per-call latency a remote
// labeler charges), and every pair comes back as an Answer that may be a
// match/non-match verdict, an abstention, or a per-pair failure.
//
// LabelBatch answers a non-empty prefix of the pairs it is given, in
// submission order — all of them, or (PerPair, and the resilience
// wrappers) just the first. The caller applies and journals
// the prefix, then submits the unanswered remainder again. On an error
// the returned prefix holds the pairs acknowledged before the call died;
// the caller must treat it as paid-for and the remainder as never
// attempted, and an empty answer without an error marks the remainder
// failed. Answers beyond the pairs submitted are ignored.
// Implementations are called sequentially from one goroutine.
type BatchOracle interface {
	LabelBatch(ctx context.Context, pairs []dataset.PairKey) ([]Answer, error)
	// Queries returns how many answers (labels plus abstentions) the
	// labeler has acknowledged — the batched counterpart of the #labels
	// metric.
	Queries() int
}

// Priced is implemented by batch oracles that bill per answer.
// MaxAnswerCost bounds what any single answer can cost, which is how the
// engine decides whether the remaining dollar budget can still afford
// another query.
type Priced interface {
	MaxAnswerCost() float64
}

// PairAdvancer is the batched counterpart of Stateful for oracles whose
// randomness is keyed per (pair, attempt ordinal) rather than drawn from
// a sequential stream. AdvancePair fast-forwards one pair's attempt
// ordinal, which is how a WAL replay realigns a freshly constructed
// oracle with the attempts a crashed process already made.
type PairAdvancer interface {
	AdvancePair(p dataset.PairKey, n int)
}

// perPair adapts a per-pair Oracle to the BatchOracle contract.
type perPair struct {
	inner Oracle
}

// PerPair lifts a per-pair Oracle (Perfect, Noisy, MajorityVote) into a
// free BatchOracle that answers one pair per call: the session applies
// and journals that answer before it submits the rest of the round, so
// every label is durable before the next query and a Stateful oracle
// draws in pair order around WAL-cached answers. A cancelled context is
// checked before the query, so a cancelled run never pays for another
// label.
func PerPair(o Oracle) BatchOracle { return perPair{inner: o} }

// LabelBatch implements BatchOracle, answering pairs[0] only.
func (o perPair) LabelBatch(ctx context.Context, pairs []dataset.PairKey) ([]Answer, error) {
	if len(pairs) == 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	v := VerdictNonMatch
	if o.inner.Label(pairs[0]) {
		v = VerdictMatch
	}
	return []Answer{{Verdict: v}}, nil
}

// Queries implements BatchOracle.
func (o perPair) Queries() int { return o.inner.Queries() }

// UnwrapOracle exposes the wrapped oracle to the session's search for
// Stateful, PairAdvancer and Priced hooks.
func (o perPair) UnwrapOracle() any { return o.inner }

// PriceTable is a batch labeler's billing schedule, in dollars.
type PriceTable struct {
	// PerLabel is charged for every match/non-match verdict.
	PerLabel float64
	// PerAbstain is charged for every abstention (labelers bill the
	// tokens they burned even when the answer is "unsure").
	PerAbstain float64
}

// Max returns the largest single-answer charge the table can produce.
func (t PriceTable) Max() float64 {
	if t.PerAbstain > t.PerLabel {
		return t.PerAbstain
	}
	return t.PerLabel
}

// ErrSimulated marks a per-pair failure injected by the simulated LLM
// labeler; tests match it with errors.Is.
var ErrSimulated = errors.New("oracle: simulated labeler failure")

// LLMSimConfig shapes a SimulatedLLMOracle. The zero value is a free,
// always-answering, noise-free labeler.
type LLMSimConfig struct {
	// AbstainRate is the probability in [0, 1] that an answer abstains.
	AbstainRate float64
	// NoiseRate is the probability in [0, 1] that a non-abstaining
	// answer flips the true label.
	NoiseRate float64
	// FailRate is the probability in [0, 1] that an answer fails with a
	// per-pair error (unbilled, no verdict).
	FailRate float64
	// Price is the billing schedule.
	Price PriceTable
}

// SimulatedLLMOracle is a deterministic, seeded stand-in for an
// LLM-style batch labeler: per-answer cost, abstentions and label
// noise — no network. Every abstain/noise/failure decision is a
// PairDraw of (seed, pair, that pair's attempt ordinal), as are
// resilience.FaultyOracle's faults: two instances built with the same
// seed and driven with the same per-pair attempt sequence answer
// identically, regardless of how batches interleave pairs — which is
// what lets the chaos suite assert a killed-and-resumed run matches an
// uninterrupted one.
//
// The per-pair attempt ordinals are process-local state; a resumed
// process realigns them from the WAL via AdvancePair. Failed answers are
// not journaled, so alignment across a resume holds as long as no pair
// failed after the last checkpoint and was still pending at the kill
// (the same documented precondition FaultyOracle has for exhausted
// retries).
type SimulatedLLMOracle struct {
	d    *dataset.Dataset
	cfg  LLMSimConfig
	seed int64

	mu       sync.Mutex
	attempts map[dataset.PairKey]int
	queries  int
	batches  int
	labels   int
	abstains int
	failures int
	spent    float64
}

// NewSimulatedLLM builds a simulated batch labeler over the dataset's
// ground truth.
func NewSimulatedLLM(d *dataset.Dataset, cfg LLMSimConfig, seed int64) *SimulatedLLMOracle {
	return &SimulatedLLMOracle{d: d, cfg: cfg, seed: seed, attempts: map[dataset.PairKey]int{}}
}

// Draw salts separate the failure, abstention and noise decision streams
// derived from one attempt ordinal.
const (
	saltFail = iota + 1
	saltAbstain
	saltNoise
)

// LabelBatch implements BatchOracle.
func (o *SimulatedLLMOracle) LabelBatch(ctx context.Context, pairs []dataset.PairKey) ([]Answer, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.batches++
	out := make([]Answer, 0, len(pairs))
	for _, p := range pairs {
		o.attempts[p]++
		n := o.attempts[p]
		switch {
		case o.cfg.FailRate > 0 && PairDraw(o.seed, p, n, saltFail) < o.cfg.FailRate:
			o.failures++
			out = append(out, Answer{Err: fmt.Errorf("%w (pair %d,%d attempt %d)",
				ErrSimulated, p.L, p.R, n)})
		case o.cfg.AbstainRate > 0 && PairDraw(o.seed, p, n, saltAbstain) < o.cfg.AbstainRate:
			o.queries++
			o.abstains++
			o.spent += o.cfg.Price.PerAbstain
			out = append(out, Answer{Verdict: VerdictAbstain, Cost: o.cfg.Price.PerAbstain})
		default:
			lab := o.d.IsMatch(p)
			if o.cfg.NoiseRate > 0 && PairDraw(o.seed, p, n, saltNoise) < o.cfg.NoiseRate {
				lab = !lab
			}
			v := VerdictNonMatch
			if lab {
				v = VerdictMatch
			}
			o.queries++
			o.labels++
			o.spent += o.cfg.Price.PerLabel
			out = append(out, Answer{Verdict: v, Cost: o.cfg.Price.PerLabel})
		}
	}
	return out, nil
}

// Queries implements BatchOracle: acknowledged answers (labels plus
// abstentions; failures excluded).
func (o *SimulatedLLMOracle) Queries() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.queries
}

// MaxAnswerCost implements Priced.
func (o *SimulatedLLMOracle) MaxAnswerCost() float64 { return o.cfg.Price.Max() }

// AdvancePair implements PairAdvancer, fast-forwarding one pair's
// attempt ordinal past answers a crashed process already received.
func (o *SimulatedLLMOracle) AdvancePair(p dataset.PairKey, n int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempts[p] += n
}

// Spent returns the dollars this instance has billed.
func (o *SimulatedLLMOracle) Spent() float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.spent
}

// Batches returns how many LabelBatch calls were made.
func (o *SimulatedLLMOracle) Batches() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.batches
}

// Labels returns how many match/non-match verdicts were issued.
func (o *SimulatedLLMOracle) Labels() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.labels
}

// Abstains returns how many abstentions were issued.
func (o *SimulatedLLMOracle) Abstains() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.abstains
}

// Failures returns how many per-pair failures were injected.
func (o *SimulatedLLMOracle) Failures() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.failures
}

// PairDraw maps (seed, pair, attempt, salts...) to a uniform [0, 1)
// value via FNV-1a over their little-endian 64-bit words — cheap, stable
// across processes and independent of how calls for different pairs
// interleave. Salts decorrelate several decision streams derived from
// one attempt ordinal. It is the per-attempt randomness of every
// seeded labeler: the simulated LLM's failures, abstentions and noise,
// and resilience.FaultyOracle's injected faults.
func PairDraw(seed int64, p dataset.PairKey, attempt int, salts ...int) float64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	word(uint64(seed))
	word(uint64(p.L))
	word(uint64(p.R))
	word(uint64(attempt))
	for _, s := range salts {
		word(uint64(s))
	}
	return float64(h.Sum64()>>11) / float64(1<<53)
}
