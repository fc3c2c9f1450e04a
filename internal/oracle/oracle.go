// Package oracle models the labeler an active learner queries (§3, §6.2):
// a perfect Oracle answering from ground truth, and an imperfect Oracle
// that flips the true label with a fixed probability, emulating
// crowd-sourced noise without majority voting or label inference —
// deliberately harsher than real crowd pipelines, as the paper notes.
package oracle

import (
	"math/rand"

	"github.com/alem/alem/internal/dataset"
)

// Oracle labels candidate pairs on demand and counts the queries issued,
// which is the #labels evaluation metric.
type Oracle interface {
	// Label returns the (possibly perturbed) label of a pair.
	Label(p dataset.PairKey) bool
	// Queries returns how many labels have been requested so far.
	Queries() int
}

// Perfect answers every query from ground truth.
type Perfect struct {
	d       *dataset.Dataset
	queries int
}

// NewPerfect builds a perfect Oracle over the dataset's ground truth.
func NewPerfect(d *dataset.Dataset) *Perfect { return &Perfect{d: d} }

// Label implements Oracle.
func (o *Perfect) Label(p dataset.PairKey) bool {
	o.queries++
	return o.d.IsMatch(p)
}

// Queries implements Oracle.
func (o *Perfect) Queries() int { return o.queries }

// Stateful is implemented by oracles whose answers depend on internal
// random state. Draws reports how many random draws have been consumed;
// Advance replays that many draws against a freshly seeded instance so a
// resumed oracle continues the exact random sequence a checkpointed run
// would have seen. core.Snapshot captures Draws and Session.Resume calls
// Advance, which is what keeps a Noisy oracle's flips bit-identical
// across a kill/resume.
type Stateful interface {
	// Draws returns the number of random draws consumed so far.
	Draws() uint64
	// Advance consumes and discards n random draws.
	Advance(n uint64)
}

// Noisy flips the true label with probability Noise on every query.
// Repeated queries of the same pair are perturbed independently, the
// paper's "always perturb when the random draw falls within the noise
// threshold" criterion.
type Noisy struct {
	d       *dataset.Dataset
	noise   float64
	rand    *rand.Rand
	queries int
	draws   uint64
}

// NewNoisy builds an Oracle with the given flip probability in [0,1].
func NewNoisy(d *dataset.Dataset, noise float64, seed int64) *Noisy {
	return &Noisy{d: d, noise: noise, rand: rand.New(rand.NewSource(seed))}
}

// Label implements Oracle.
func (o *Noisy) Label(p dataset.PairKey) bool {
	o.queries++
	o.draws++
	l := o.d.IsMatch(p)
	if o.rand.Float64() < o.noise {
		return !l
	}
	return l
}

// Queries implements Oracle.
func (o *Noisy) Queries() int { return o.queries }

// Draws implements Stateful: one Float64 draw per Label call.
func (o *Noisy) Draws() uint64 { return o.draws }

// Advance implements Stateful, fast-forwarding a freshly seeded Noisy to
// the random position a checkpointed instance had reached.
func (o *Noisy) Advance(n uint64) {
	for i := uint64(0); i < n; i++ {
		o.rand.Float64()
	}
	o.draws += n
}

// MajorityVote wraps a noisy Oracle with the label-correction technique
// §6.2 deliberately leaves out: each label request is answered by K
// independent workers (K odd) and the majority wins. Real crowd
// pipelines pay K× the labels for a much lower effective error rate —
// flipping a majority of K independent p-noisy votes needs ⌈K/2⌉
// simultaneous errors. Queries counts every worker response, so the
// #labels metric reflects the true crowd cost.
//
// MajorityVote is Stateful in vote rounds: Draws counts Label calls, and
// Advance(n) advances a Stateful voter by n·k draws, so a snapshot or a
// WAL-cached answer realigns the voters' noise stream one whole round at
// a time.
type MajorityVote struct {
	inner  Oracle
	k      int
	rounds uint64
}

// NewMajorityVote wraps inner with k-worker voting; even k is rounded up
// to the next odd value so ties cannot occur.
func NewMajorityVote(inner Oracle, k int) *MajorityVote {
	if k < 1 {
		k = 1
	}
	if k%2 == 0 {
		k++
	}
	return &MajorityVote{inner: inner, k: k}
}

// Label implements Oracle.
func (o *MajorityVote) Label(p dataset.PairKey) bool {
	o.rounds++
	pos := 0
	for i := 0; i < o.k; i++ {
		if o.inner.Label(p) {
			pos++
		}
	}
	return 2*pos > o.k
}

// Queries implements Oracle: the total worker responses paid for.
func (o *MajorityVote) Queries() int { return o.inner.Queries() }

// Draws implements Stateful: one per vote round.
func (o *MajorityVote) Draws() uint64 { return o.rounds }

// Advance implements Stateful, fast-forwarding n vote rounds: k draws
// each of a Stateful voter (a stateless one has nothing to skip).
func (o *MajorityVote) Advance(n uint64) {
	if st, ok := o.inner.(Stateful); ok {
		st.Advance(n * uint64(o.k))
	}
	o.rounds += n
}
