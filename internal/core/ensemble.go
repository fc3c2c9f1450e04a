package core

import (
	"context"
	"math/rand"
	"time"

	"github.com/alem/alem/internal/oracle"
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
// event stream: the context is checked at every phase boundary, inside
// parallel prediction and before every Oracle query; observers receive
// the same IterationStart/TrainDone/EvalDone/BatchSelected/RunEnd events
// a Session emits, plus CandidateAccepted when the §5.2 precision test
// admits a classifier. On cancellation the partial result is returned
// together with the context's error. (Checkpoint/resume is a base-Session
// capability; ensembles do not snapshot.)
//
// The ensemble loop shares its phase primitives — seed bootstrap, pooled
// prediction, point scoring, batch labeling — with the Session engine
// rather than duplicating the orchestration, and draws from the RNG in
// the same order as the pre-Session implementation.
func RunEnsembleContext(ctx context.Context, pool *Pool, o oracle.Oracle, cfg EnsembleConfig, observers ...Observer) (*EnsembleResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.Config.Validate(); err != nil {
		return nil, err
	}
	cfg.Config = cfg.Config.withDefaults()
	if cfg.Tau == 0 {
		cfg.Tau = 0.85
	}
	if cfg.MinPositive == 0 {
		cfg.MinPositive = 3
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	emit := func(e Event) {
		for _, obs := range observers {
			obs.Observe(e)
		}
	}

	e := &ensembleRun{pool: pool, oracle: o, cfg: cfg, rng: r}
	res := &EnsembleResult{}
	finish := func(reason StopReason, err error) (*EnsembleResult, error) {
		res.LabelsUsed = e.totalLabels
		res.Reason = reason
		emit(RunEnd{Iterations: len(res.Curve), LabelsUsed: e.totalLabels, Reason: reason, Err: err})
		return res, err
	}

	if err := e.seed(ctx); err != nil {
		return finish(StopCancelled, err)
	}
	res.TestSize = len(e.testIdx)

	var accepted []Learner

	for iter := 0; ; iter++ {
		emit(IterationStart{Iteration: iter, LabelsUsed: e.totalLabels, PoolRemaining: len(e.unlabeled)})
		if err := ctx.Err(); err != nil {
			return finish(StopCancelled, err)
		}

		// Train the candidate on the uncovered labeled remainder.
		trainX, trainY := gatherTraining(pool, e.labeled, e.labels, len(e.labeled))
		candidate := cfg.Factory(r.Int63())
		start := time.Now()
		if len(trainX) > 0 && bothClasses(trainY) {
			candidate.Train(trainX, trainY)
		} else {
			candidate = nil
		}
		trainTime := time.Since(start)
		emit(TrainDone{Iteration: iter, Labels: len(e.labeled), Elapsed: trainTime})
		if err := ctx.Err(); err != nil {
			return finish(StopCancelled, err)
		}

		// Evaluate the ensemble union on the test universe. The full
		// slice expression keeps the append out of accepted's backing
		// array.
		members := accepted[:len(accepted):len(accepted)]
		if candidate != nil {
			members = append(members, candidate)
		}
		evalStart := time.Now()
		pred, err := parallelPredict(ctx, pool, e.testIdx, cfg.Workers, members...)
		if err != nil {
			return finish(StopCancelled, err)
		}
		pt := evalPoint(pool, e.testIdx, pred, e.totalLabels, trainTime)
		emit(EvalDone{Iteration: iter, Point: pt, Elapsed: time.Since(evalStart)})

		var batch []int
		reason := StopNone
		switch {
		case e.totalLabels >= e.maxLabels:
			reason = StopBudget
		case len(e.unlabeled) == 0:
			reason = StopPoolExhausted
		case cfg.TargetF1 > 0 && pt.F1 >= cfg.TargetF1:
			reason = StopTargetF1
		case candidate == nil:
			reason = StopSelectorEmpty
		default:
			sctx := &SelectContext{
				Ctx:     ctx,
				Learner: candidate, Pool: pool,
				LabeledIdx: e.labeled, Labels: e.labels,
				Unlabeled: e.unlabeled, Rand: r,
				Workers: cfg.Workers,
			}
			k := min(cfg.BatchSize, e.maxLabels-e.totalLabels)
			batch = cfg.Selector.Select(sctx, k)
			pt.CommitteeCreateTime = sctx.CommitteeCreate
			pt.ScoreTime = sctx.Score
			if err := ctx.Err(); err != nil {
				return finish(StopCancelled, err)
			}
			if len(batch) == 0 {
				reason = StopSelectorEmpty
			}
		}
		if cfg.OnIteration != nil && candidate != nil {
			cfg.OnIteration(candidate, &pt)
		}
		res.Curve = append(res.Curve, pt)
		if reason != StopNone {
			return finish(reason, nil)
		}
		emit(BatchSelected{Iteration: iter, Batch: batch,
			CommitteeCreate: pt.CommitteeCreateTime, Score: pt.ScoreTime})

		// Label the batch.
		if err := e.labelBatch(ctx, batch); err != nil {
			return finish(StopCancelled, err)
		}

		// Acceptance test (§5.2): precision of the candidate over the
		// Oracle-labeled examples it predicts as matches.
		predPos, truePos := 0, 0
		for j, i := range e.labeled {
			if candidate.Predict(pool.X[i]) {
				predPos++
				if e.labels[j] {
					truePos++
				}
			}
		}
		if predPos >= cfg.MinPositive && float64(truePos)/float64(predPos) >= cfg.Tau {
			accepted = append(accepted, candidate)
			res.Accepted++
			emit(CandidateAccepted{Iteration: iter, Accepted: res.Accepted})
			// Remove the candidate's positive predictions from both
			// labeled and unlabeled pools (Fig. 7); the next classifier
			// is learned from the uncovered remainder.
			keptLabeled := e.labeled[:0]
			keptLabels := e.labels[:0]
			for j, i := range e.labeled {
				if candidate.Predict(pool.X[i]) {
					continue
				}
				keptLabeled = append(keptLabeled, i)
				keptLabels = append(keptLabels, e.labels[j])
			}
			e.labeled, e.labels = keptLabeled, keptLabels
			keptUn := e.unlabeled[:0]
			for _, i := range e.unlabeled {
				if candidate.Predict(pool.X[i]) {
					continue
				}
				keptUn = append(keptUn, i)
			}
			e.unlabeled = keptUn
		}
	}
}

// ensembleRun is the labeled-set bookkeeping of one ensemble run. Unlike
// the base Session, the cumulative label count is tracked separately from
// the labeled list, which shrinks when an accepted classifier covers part
// of it.
type ensembleRun struct {
	pool   *Pool
	oracle oracle.Oracle
	cfg    EnsembleConfig
	rng    *rand.Rand

	maxLabels   int
	testIdx     []int
	labeled     []int
	labels      []bool
	unlabeled   []int
	totalLabels int
}

// seed mirrors the Session seed phase: split the universe, draw the
// initial sample, and keep drawing budget-clamped batches until both
// classes are present.
func (e *ensembleRun) seed(ctx context.Context) error {
	all := e.rng.Perm(e.pool.Len())
	var universe []int
	switch e.cfg.Mode {
	case HeldOut:
		cut := int(float64(e.pool.Len()) * e.cfg.HoldoutFrac)
		e.testIdx, universe = all[:cut], all[cut:]
	default:
		e.testIdx = make([]int, e.pool.Len())
		for i := range e.testIdx {
			e.testIdx[i] = i
		}
		universe = all
	}
	e.maxLabels = e.cfg.MaxLabels
	if e.maxLabels <= 0 || e.maxLabels > len(universe) {
		e.maxLabels = len(universe)
	}
	e.labeled = make([]int, 0, e.maxLabels)
	e.labels = make([]bool, 0, e.maxLabels)
	e.unlabeled = append([]int(nil), universe...)

	if err := e.labelFront(ctx, min(e.cfg.SeedLabels, e.maxLabels)); err != nil {
		return err
	}
	for !bothClasses(e.labels) && len(e.unlabeled) > 0 && e.totalLabels < e.maxLabels {
		if err := e.labelFront(ctx, min(e.cfg.BatchSize, e.maxLabels-e.totalLabels)); err != nil {
			return err
		}
	}
	return nil
}

func (e *ensembleRun) labelFront(ctx context.Context, k int) error {
	if k > len(e.unlabeled) {
		k = len(e.unlabeled)
	}
	for j := 0; j < k; j++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		i := e.unlabeled[0]
		e.unlabeled = e.unlabeled[1:]
		e.labeled = append(e.labeled, i)
		e.labels = append(e.labels, e.oracle.Label(e.pool.Pairs[i]))
		e.totalLabels++
	}
	return nil
}

func (e *ensembleRun) labelBatch(ctx context.Context, batch []int) error {
	taken := 0
	var err error
	for _, i := range batch {
		if cerr := ctx.Err(); cerr != nil {
			err = cerr
			break
		}
		e.labeled = append(e.labeled, i)
		e.labels = append(e.labels, e.oracle.Label(e.pool.Pairs[i]))
		e.totalLabels++
		taken++
	}
	removeFromPool(&e.unlabeled, batch[:taken])
	return err
}
