package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"time"

	"github.com/alem/alem/internal/feature"
	"github.com/alem/alem/internal/oracle"
	"github.com/alem/alem/internal/resilience"
)

// EnsembleConfig configures the §5.2 active-ensemble enhancement: an
// ensemble of high-precision classifiers learned incrementally across
// active-learning iterations.
type EnsembleConfig struct {
	Config
	// Tau is the precision threshold a candidate must reach on the
	// Oracle-labeled examples it predicts as matches before it is
	// accepted into the ensemble (0.85 in the paper, uniformly).
	Tau float64
	// MinPositive is the minimum number of labeled predicted-matches
	// needed before the precision estimate is trusted.
	MinPositive int
	// Factory builds the candidate classifiers (linear SVMs in the
	// paper, but any margin-capable factory works — §5.2 notes the
	// enhancement applies to neural networks unchanged).
	Factory Factory
	// Selector scores the *uncovered* unlabeled pool; margin-based
	// selection in the paper (QBC's committee-creation cost is why the
	// paper confines ensembles to margin).
	Selector Selector
}

// EnsembleResult extends Result with the accepted classifier count that
// the paper annotates on Fig. 11 ("#AcceptedSVMs").
type EnsembleResult struct {
	Result
	Accepted int
}

// RunEnsemble executes active learning with an incrementally grown
// ensemble (Fig. 7): positives predicted by accepted classifiers are
// removed from both labeled and unlabeled pools, the next candidate is
// learned on the uncovered remainder, and the final prediction is the
// union of the accepted classifiers' (plus the current candidate's)
// positive predictions.
//
// RunEnsemble is a compatibility wrapper over RunEnsembleContext with a
// background context and no observers.
func RunEnsemble(pool *Pool, o oracle.Oracle, cfg EnsembleConfig) *EnsembleResult {
	res, err := RunEnsembleContext(context.Background(), pool, o, cfg)
	if err != nil {
		panic(err)
	}
	return res
}

// RunEnsembleContext is RunEnsemble with cancellation and the Session
// event stream. It runs an ensemble session (NewEnsembleSession) over
// resilience.BatchOf(resilience.Wrap(o)) to its end, so observers see
// the events any Session emits, plus CandidateAccepted when the §5.2
// precision test admits a classifier. On cancellation the partial
// result is returned together with the context's error. For a WAL,
// fault handling, a priced labeler or checkpoint/resume, build the
// session with NewEnsembleSession instead.
func RunEnsembleContext(ctx context.Context, pool *Pool, o oracle.Oracle, cfg EnsembleConfig, observers ...Observer) (*EnsembleResult, error) {
	s, err := NewEnsembleSession(pool, resilience.BatchOf(resilience.Wrap(o)), cfg)
	if err != nil {
		return nil, err
	}
	s.AddObserver(observers...)
	res, err := s.Run(ctx)
	return &EnsembleResult{Result: *res, Accepted: len(s.ens.members)}, err
}

// NewEnsembleSession prepares a Session that runs the §5.2 active
// ensemble (Fig. 7) through the Fig. 1a loop, labeling through bo as
// NewBatchSession does. Every iteration trains a fresh candidate,
// cfg.Factory drawing its seed from the session's RNG, on the labeled
// pairs no accepted member predicts a match (the uncovered pairs, which
// are also the selector's labeled view); evaluates the union of the
// accepted members and the candidate; and selects from the uncovered
// unlabeled pool with the candidate. After the label phase, a candidate
// whose precision over the uncovered pairs it predicts a match reaches
// cfg.Tau, on at least cfg.MinPositive of them, joins the ensemble
// (CandidateAccepted) and its predicted matches leave the unlabeled
// pool. A run whose uncovered pairs cannot train a candidate stops with
// StopSelectorEmpty. The labeled set keeps every label paid, so the
// budget, curve points, WAL and ledger count labels as a plain
// session's do; RestoreEnsembleWithWAL resumes its snapshots.
func NewEnsembleSession(pool *Pool, bo oracle.BatchOracle, cfg EnsembleConfig) (*Session, error) {
	if cfg.Factory == nil {
		return nil, fmt.Errorf("core: NewEnsembleSession requires a Factory")
	}
	s, err := NewBatchSession(pool, nil, cfg.Selector, bo, cfg.Config)
	if err != nil {
		return nil, err
	}
	s.ens = &ensemble{factory: cfg.Factory, EnsembleState: EnsembleState{
		Tau: cmp.Or(cfg.Tau, 0.85), MinPositive: cmp.Or(cfg.MinPositive, 3),
	}}
	return s, nil
}

// EnsembleState is an ensemble session's part of a Snapshot: the
// acceptance test and the accepted members, in acceptance order.
type EnsembleState struct {
	Tau         float64          `json:"tau"`
	MinPositive int              `json:"min_positive"`
	Members     []EnsembleMember `json:"members,omitempty"`
}

// EnsembleMember records one accepted classifier: the iteration whose
// candidate it was and the Factory seed it was built from.
type EnsembleMember struct {
	Iteration int   `json:"iteration"`
	Seed      int64 `json:"seed"`
}

// ensemble is a Session's §5.2 policy. The session's learner is the
// iteration's candidate, nil when the uncovered pairs cannot train one.
type ensemble struct {
	EnsembleState
	factory Factory
	// members are the accepted classifiers, parallel to Members.
	members []Learner
	// seed is the candidate's Factory seed.
	seed int64
	// labeled and labels are the uncovered pairs at the last train
	// phase, in labeled order: the candidate's training set and the
	// selector's labeled view.
	labeled []int
	labels  []bool
}

// covers reports whether some accepted member predicts x a match.
func (e *ensemble) covers(x feature.Vector) bool {
	for _, m := range e.members {
		if m.Predict(x) {
			return true
		}
	}
	return false
}

// uncovered returns the pairs of the first n labeled that no accepted
// member predicts a match, with their labels, in labeled order. A pair
// labeled after an acceptance came from the unlabeled pool that
// acceptance filtered, so the labeled set needs no coverage marks.
func (e *ensemble) uncovered(pool *Pool, labeled []int, labels []bool, n int) ([]int, []bool) {
	var idx []int
	var labs []bool
	for j, i := range labeled[:n] {
		if !e.covers(pool.X[i]) {
			idx = append(idx, i)
			labs = append(labs, labels[j])
		}
	}
	return idx, labs
}

// train draws the candidate's seed and trains Factory(seed) on the
// uncovered pairs, returning the wall time and the training-set size.
func (e *ensemble) train(s *Session) (time.Duration, int) {
	e.labeled, e.labels = e.uncovered(s.pool, s.labeled, s.labels, len(s.labeled))
	e.seed = s.rng.Int63()
	s.learner = nil
	if !bothClasses(e.labels) {
		return 0, len(e.labeled)
	}
	c := e.factory(e.seed)
	trainX, trainY := gatherTraining(s.pool, e.labeled, e.labels, len(e.labeled))
	start := time.Now()
	c.Train(trainX, trainY)
	s.learner = c
	return time.Since(start), len(e.labeled)
}

// union is what the evaluate phase predicts with: the accepted members
// plus the candidate l, if any. The full slice expression keeps the
// append out of members' backing array.
func (e *ensemble) union(l Learner) []Learner {
	u := e.members[:len(e.members):len(e.members)]
	if l != nil {
		u = append(u, l)
	}
	return u
}

// accept runs the §5.2 acceptance test after the label phase: the
// candidate's precision over the uncovered labeled pairs, the batch just
// labeled included, that it predicts a match.
func (e *ensemble) accept(s *Session) {
	c := s.learner
	predPos, truePos := 0, 0
	for j, i := range s.labeled {
		if x := s.pool.X[i]; c.Predict(x) && !e.covers(x) {
			predPos++
			if s.labels[j] {
				truePos++
			}
		}
	}
	if !(predPos >= e.MinPositive && float64(truePos)/float64(predPos) >= e.Tau) {
		return
	}
	e.members = append(e.members, c)
	e.Members = append(e.Members, EnsembleMember{Iteration: s.iter, Seed: e.seed})
	s.emit(CandidateAccepted{Iteration: s.iter, Accepted: len(e.members)})
	// The candidate's predicted matches leave the unlabeled pool (Fig.
	// 7), and their abstain tallies with them; the next candidate is
	// learned on the uncovered remainder.
	s.unlabeled = slices.DeleteFunc(s.unlabeled, func(i int) bool {
		if !c.Predict(s.pool.X[i]) {
			return false
		}
		delete(s.abstains, i)
		return true
	})
}

// snapshot copies the policy's serializable state; nil for a plain
// session.
func (e *ensemble) snapshot() *EnsembleState {
	if e == nil {
		return nil
	}
	st := e.EnsembleState
	st.Members = append([]EnsembleMember(nil), e.Members...)
	return &st
}

// RestoreEnsembleWithWAL is RestoreBatchWithWAL for a snapshot of an
// ensemble session (NewEnsembleSession), with the Factory and Selector
// the run was built with. It replays the accepted members only: member
// k is factory(seed_k) trained on the pairs of its iteration's labeled
// prefix that members 1..k−1 leave uncovered. Every other candidate
// was discarded, and the next is drawn from the replayed RNG.
func RestoreEnsembleWithWAL(pool *Pool, factory Factory, sel Selector, bo oracle.BatchOracle, sn *Snapshot, wal []resilience.LabelRecord) (*Session, error) {
	if sn.Ensemble == nil {
		return nil, fmt.Errorf("core: snapshot is of a plain session; restore it with RestoreBatchWithWAL")
	}
	s, err := NewEnsembleSession(pool, bo, EnsembleConfig{
		Config: sn.Config, Tau: sn.Ensemble.Tau, MinPositive: sn.Ensemble.MinPositive,
		Factory: factory, Selector: sel,
	})
	if err != nil {
		return nil, err
	}
	if err := s.restore(sn, wal); err != nil {
		return nil, err
	}
	e := s.ens
	for _, m := range sn.Ensemble.Members {
		if m.Iteration < 0 || m.Iteration >= len(sn.Curve) {
			return nil, fmt.Errorf("core: snapshot ensemble member of iteration %d outside its %d-point curve",
				m.Iteration, len(sn.Curve))
		}
		labeled, labels := e.uncovered(pool, s.labeled, s.labels, sn.Curve[m.Iteration].Labels)
		c := factory(m.Seed)
		c.Train(gatherTraining(pool, labeled, labels, len(labeled)))
		e.members = append(e.members, c)
		e.Members = append(e.Members, m)
	}
	return s, nil
}
