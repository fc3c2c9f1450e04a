package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"github.com/alem/alem/internal/eval"
	"github.com/alem/alem/internal/feature"
	"github.com/alem/alem/internal/oracle"
	"github.com/alem/alem/internal/par"
	"github.com/alem/alem/internal/resilience"
)

// ErrLabelingStalled is returned by Step (and wrapped into the Result's
// error) when an entire labeling round failed — every query in the batch
// errored and not one label was granted. It separates "the labeler is
// down" (StopOracleFailed) from ordinary cancellation, and stops the
// engine from spinning on a dead Oracle forever.
var ErrLabelingStalled = errors.New("core: labeling stalled, no query in the round succeeded")

// LabelSink receives every acknowledged answer, in answer order, before
// the engine considers it applied. resilience.LabelWAL implements it;
// wiring one in with SetLabelSink makes each paid-for answer durable the
// moment it is granted, before the labeler is asked anything else, which
// is what lets Snapshot + WAL replay resume a killed run without
// re-paying (or re-randomizing) any answer.
type LabelSink interface {
	// AppendRecord durably records one acknowledged answer: a label, or
	// a billed abstention with its cost. rec.Seq is the answer's 1-based
	// position in the run. An error is fatal to the run: an answer that
	// cannot be made durable must not be trained on or paid for twice.
	AppendRecord(rec resilience.LabelRecord) error
}

// Session is the active-learning loop of Fig. 1a decomposed into explicit
// phases — seed, train, evaluate, select, label — with three cross-cutting
// capabilities the monolithic core.Run never had:
//
//   - cancellation: Run and Step honor a context.Context, checked at every
//     phase boundary, inside parallel prediction, before every labeler
//     call, and (via SelectContext.Ctx) inside the slow selectors, so a
//     run aborts within one iteration without losing its partial curve;
//   - observation: a typed event stream (Observer) reports phase
//     transitions with per-phase timings while the run is in flight;
//   - checkpointing: Snapshot serializes the labeled set, RNG position
//     and stability counters, and Resume loads them into a freshly built
//     session, so long runs survive restarts (see snapshot.go).
//
// A Session produces bit-identical curves to the core.Run it replaces:
// the engine draws from the same RNG in the same order, and core.Run is
// now a thin wrapper over it.
//
// A Session is single-use: construct with NewSession, NewBatchSession or
// NewEnsembleSession (then Resume a snapshot on it to continue an
// interrupted run), drive with Run or Step, then read Result. It is not
// safe for concurrent use; run concurrent sessions instead (they share
// nothing).
type Session struct {
	pool    *Pool
	learner Learner
	sel     Selector
	// batcher is the session's only labeler; a per-pair oracle comes in
	// through oracle.PerPair (see NewSession).
	batcher oracle.BatchOracle
	cfg     Config

	// stateful is the oracle's RNG-state hook when the labeler chain
	// holds an oracle.Stateful (Noisy does), discovered once at
	// construction; nil otherwise.
	stateful oracle.Stateful
	// pairAdv is the chain's per-pair ordinal realignment hook, when it
	// holds an oracle.PairAdvancer (the simulated LLM oracle does).
	pairAdv oracle.PairAdvancer
	// maxCost is the labeler's per-answer cost ceiling (0 for free
	// oracles), the unit the dollar budget is checked against.
	maxCost float64
	// sink, when set, durably records every answer (see LabelSink).
	sink LabelSink
	// wal holds the answers a crashed run paid for after its last
	// checkpoint, recovered by Resume: pool index → answers
	// in WAL order (billed abstentions first, then the final label).
	// labelBatch consumes them in round order instead of querying the
	// labeler, so a resumed run never re-pays for an answer.
	wal map[int][]oracle.Answer
	// ledger is the session's cost accounting; see CostLedger.
	ledger CostLedger
	// abstains counts billed abstentions per still-pending pool index;
	// a pair reaching the abstain cutoff is retired from the pool.
	abstains map[int]int
	// warm is the transfer warm-start learner (see SetWarmStart): it
	// drives evaluation and selection until the labeled set can train
	// the session's own learner, and is itself never trained.
	warm Learner
	// ens is the §5.2 active-ensemble policy of a NewEnsembleSession;
	// nil for a plain session.
	ens *ensemble

	src *countingSource
	rng *rand.Rand

	observers []Observer

	// Universe split and labeled-set bookkeeping, valid after the seed
	// phase.
	maxLabels int
	testIdx   []int
	labeled   []int
	labels    []bool
	unlabeled []int

	seeded      bool
	iter        int
	prevPred    []bool
	stableIters int

	// values are the active learner's decision values of every pool row
	// from the last evaluation, handed to the selector of the same step;
	// trainPhase clears them (see evalPhase).
	values poolValues

	res    *Result
	reason StopReason
	done   bool
	err    error
}

// NewSession is NewBatchSession for a classic per-pair Oracle, which
// oracle.PerPair asks one pair per LabelBatch call.
func NewSession(pool *Pool, learner Learner, sel Selector, o oracle.Oracle, cfg Config) (*Session, error) {
	return NewBatchSession(pool, learner, sel, oracle.PerPair(o), cfg)
}

// NewBatchSession validates the config and prepares a session that
// labels through bo. No labels are bought until the first Run or Step
// call (the seed phase is lazy), so construction is side-effect free.
//
// Every labeling round asks bo for the round's pairs, in order; answers
// may abstain (billed, requeued up to Config.AbstainCutoff, then retired
// from the pool) or fail per pair (requeued at the back of the pool and
// surfaced as an OracleFault event), and only a round in which every
// query fails stops the run (StopOracleFailed). Every answer's cost is
// accumulated into the session's CostLedger, and Config.MaxDollars
// bounds the total spend (StopBudgetExhausted). A labeler that retries
// or injects faults is a resilience.Retrier or resilience.FaultyOracle
// wrapped around another BatchOracle. One walk down the chain's
// UnwrapOracle links finds the first oracle.Stateful, oracle.PairAdvancer
// and oracle.Priced in it, so Snapshot+WAL resume realigns the oracle's
// randomness and the dollar budget knows the worst-case answer price.
func NewBatchSession(pool *Pool, learner Learner, sel Selector, bo oracle.BatchOracle, cfg Config) (*Session, error) {
	if bo == nil {
		return nil, fmt.Errorf("core: NewBatchSession requires a batch oracle")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Same pre-seed validation path as Config.Validate: a selector that
	// declares learner requirements (LearnerChecker) is checked here, so
	// e.g. LFP/LFN composed with a non-rule learner fails with a typed
	// *IncompatibleError at construction instead of terminating mid-run
	// with an inscrutable StopSelectorEmpty.
	if err := ValidateSelection(learner, sel); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	src := newCountingSource(cfg.Seed)
	s := &Session{
		pool:     pool,
		learner:  learner,
		sel:      sel,
		batcher:  bo,
		cfg:      cfg,
		abstains: map[int]int{},
		src:      src,
		rng:      rand.New(src),
		res:      &Result{},
	}
	for o := any(bo); o != nil; {
		if st, ok := o.(oracle.Stateful); ok && s.stateful == nil {
			s.stateful = st
		}
		if pa, ok := o.(oracle.PairAdvancer); ok && s.pairAdv == nil {
			s.pairAdv = pa
		}
		if pr, ok := o.(oracle.Priced); ok && s.maxCost == 0 {
			s.maxCost = pr.MaxAnswerCost()
		}
		u, ok := o.(interface{ UnwrapOracle() any })
		if !ok {
			break
		}
		o = u.UnwrapOracle()
	}
	return s, nil
}

// SetLabelSink wires a durable label log (typically a
// resilience.LabelWAL) into the session. Call before Run/Step; labels
// granted earlier are not re-sent. Appends are idempotent on a WAL, so
// attaching the same WAL a run was resumed from is safe.
func (s *Session) SetLabelSink(sink LabelSink) { s.sink = sink }

// AddObserver subscribes obs to the session's event stream. Call before
// Run/Step; events already emitted are not replayed.
func (s *Session) AddObserver(obs ...Observer) {
	s.observers = append(s.observers, obs...)
}

func (s *Session) emit(e Event) {
	for _, o := range s.observers {
		o.Observe(e)
	}
}

// Result returns the run's (possibly partial) outcome. The curve holds
// one point per completed iteration; LabelsUsed is only set once the run
// has finished or been cancelled.
func (s *Session) Result() *Result { return s.res }

// Reason returns why the run stopped (StopNone while still running).
func (s *Session) Reason() StopReason { return s.reason }

// Done reports whether the run has terminated.
func (s *Session) Done() bool { return s.done }

// Run drives the session to completion: seed once, then iterate
// train→evaluate→select→label until a stopping criterion fires. On
// cancellation it returns the partial Result together with the context's
// error; the session remains snapshottable, so the curve is not lost.
func (s *Session) Run(ctx context.Context) (*Result, error) {
	for {
		done, err := s.Step(ctx)
		if done || err != nil {
			return s.res, err
		}
	}
}

// Step executes the seed phase if needed, then exactly one
// train→evaluate→select→label iteration. It returns done=true once a
// stopping criterion fires (calling Step again is a no-op). Snapshots
// taken between Step calls are exact checkpoints.
func (s *Session) Step(ctx context.Context) (bool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if s.done {
		return true, s.err
	}
	if s.cfg.WarmStartModel != "" && s.warm == nil {
		return true, s.cancel(fmt.Errorf(
			"core: config records warm-start %q but no learner is attached (call SetWarmStart before Step)",
			s.cfg.WarmStartModel))
	}
	if !s.seeded {
		start := time.Now()
		if err := s.seedPhase(ctx); err != nil {
			return true, err
		}
		s.emit(PhaseDone{
			Phase: "seed", Iteration: -1, Elapsed: time.Since(start),
			Labels: len(s.labeled), LabelsDelta: len(s.labeled),
			Workers: par.Workers(s.cfg.Workers), PoolRemaining: len(s.unlabeled),
		})
	}

	if err := ctx.Err(); err != nil {
		return true, s.cancel(err)
	}

	trainTime, trainRows := s.trainPhase()
	s.emit(PhaseDone{
		Phase: "train", Iteration: s.iter, Elapsed: trainTime,
		Labels: trainRows, Workers: 1, PoolRemaining: len(s.unlabeled),
	})
	if err := ctx.Err(); err != nil {
		return true, s.cancel(err)
	}

	pt, pred, err := s.evalPhase(ctx, trainTime)
	if err != nil {
		return true, s.cancel(err)
	}
	pt.Spent = s.ledger.Spent

	// Ground-truth-free stability stop: track prediction churn.
	if s.cfg.StabilityWindow > 0 {
		if s.prevPred != nil {
			flips := 0
			for j := range pred {
				if pred[j] != s.prevPred[j] {
					flips++
				}
			}
			if float64(flips) <= s.cfg.StabilityEpsilon*float64(len(pred)) {
				s.stableIters++
			} else {
				s.stableIters = 0
			}
		}
		s.prevPred = pred
	}

	selStart := time.Now()
	batch, reason := s.selectPhase(ctx, &pt)
	if err := ctx.Err(); err != nil {
		// Cancelled inside the selector: the iteration is incomplete, so
		// its point is not recorded.
		return true, s.cancel(err)
	}
	s.emit(PhaseDone{
		Phase: "select", Iteration: s.iter, Elapsed: time.Since(selStart),
		Labels: len(s.labeled), Batch: len(batch),
		Workers: par.Workers(s.cfg.Workers), PoolRemaining: len(s.unlabeled),
		Point: pt,
	})
	s.res.Curve = append(s.res.Curve, pt)
	if reason != StopNone {
		s.finish(reason, nil)
		return true, nil
	}

	labStart := time.Now()
	before := len(s.labeled)
	if err := s.labelBatch(ctx, batch); err != nil {
		return true, s.failLabeling(err)
	}
	s.emit(PhaseDone{
		Phase: "label", Iteration: s.iter, Elapsed: time.Since(labStart),
		Labels: len(s.labeled), LabelsDelta: len(s.labeled) - before,
		Batch: len(batch), Workers: 1, PoolRemaining: len(s.unlabeled),
	})
	if s.ens != nil {
		s.ens.accept(s)
	}
	s.iter++
	return false, nil
}

// failLabeling terminates the run for a labeling error, separating a
// stalled labeler (StopOracleFailed) from cancellation and sink faults.
func (s *Session) failLabeling(err error) error {
	if errors.Is(err, ErrLabelingStalled) {
		s.finish(StopOracleFailed, err)
		return err
	}
	return s.cancel(err)
}

// seedPhase builds the selection universe and draws the initial labeled
// sample. If a single class comes back, it keeps drawing batches until
// both classes are present (a degenerate training set cannot bootstrap
// any learner); each extra draw is clamped to the remaining budget so the
// bootstrap can never overshoot MaxLabels.
func (s *Session) seedPhase(ctx context.Context) error {
	all := s.rng.Perm(s.pool.Len())
	var universe []int
	switch s.cfg.Mode {
	case HeldOut:
		cut := int(float64(s.pool.Len()) * s.cfg.HoldoutFrac)
		s.testIdx, universe = all[:cut], all[cut:]
	default:
		s.testIdx = make([]int, s.pool.Len())
		for i := range s.testIdx {
			s.testIdx[i] = i
		}
		universe = all
	}
	s.maxLabels = s.cfg.MaxLabels
	if s.maxLabels <= 0 || s.maxLabels > len(universe) {
		s.maxLabels = len(universe)
	}
	s.labeled = make([]int, 0, s.maxLabels)
	s.labels = make([]bool, 0, s.maxLabels)
	s.unlabeled = append([]int(nil), universe...)
	s.res.TestSize = len(s.testIdx)
	s.seeded = true

	if s.warm != nil {
		// Transfer warm-start: the pre-trained learner drives the first
		// selections, so no random bootstrap sample is bought. The
		// universe split and RNG position above are unchanged.
		return nil
	}
	if err := s.labelFront(ctx, min(s.cfg.SeedLabels, s.maxLabels)); err != nil {
		return s.failLabeling(err)
	}
	for !bothClasses(s.labels) && len(s.unlabeled) > 0 && len(s.labeled) < s.maxLabels &&
		!s.budgetExhausted() {
		if err := s.labelFront(ctx, min(s.cfg.BatchSize, s.maxLabels-len(s.labeled))); err != nil {
			return s.failLabeling(err)
		}
	}
	return nil
}

// labelFront labels the next k unlabeled examples in universe order.
func (s *Session) labelFront(ctx context.Context, k int) error {
	if k > len(s.unlabeled) {
		k = len(s.unlabeled)
	}
	return s.labelBatch(ctx, append([]int(nil), s.unlabeled[:k]...))
}

// trainPhase retrains the learner from scratch on the cumulative labeled
// set (the benchmark's retrain protocol) and returns the wall time and
// the training-set size. While a warm-start session's labeled set cannot
// train (empty or single-class), the phase is skipped — the warm learner
// serves as the model and is never trained, which keeps snapshot replay
// trivially deterministic. An ensemble session trains a fresh candidate
// on the uncovered pairs instead (see ensemble.train).
func (s *Session) trainPhase() (time.Duration, int) {
	s.values = poolValues{}
	if s.ens != nil {
		return s.ens.train(s)
	}
	if s.useWarm() {
		return 0, len(s.labeled)
	}
	trainX, trainY := gatherTraining(s.pool, s.labeled, s.labels, len(s.labeled))
	start := time.Now()
	s.learner.Train(trainX, trainY)
	return time.Since(start), len(s.labeled)
}

// evalPhase predicts over the test universe in parallel and scores the
// confusion matrix. When the test universe is every pool row in row
// order (Progressive) and the active learner is itself a
// DecisionLearner, it keeps the value behind each prediction in
// s.values, so this step's selector reads them instead of sweeping the
// pool again. Any other learner is swept through Decider's adapter,
// whose 0/1 values are never kept: a margin selector would read them in
// place of the learner's own Margin. The values are tied to the learner
// by identity, so a learner whose type cannot be compared (a value type
// holding a slice) is swept the old way. An ensemble session predicts
// the union of its members and candidate; it keeps values only while the
// candidate is the one predictor.
func (s *Session) evalPhase(ctx context.Context, trainTime time.Duration) (eval.Point, []bool, error) {
	start := time.Now()
	l := s.activeLearner()
	learners := []Learner{l}
	if s.ens != nil {
		learners = s.ens.union(l)
	}
	var pred []bool
	var err error
	if dl, ok := l.(DecisionLearner); ok && len(learners) == 1 && wholePool(s.testIdx, s.pool.Len()) && reflect.TypeOf(l).Comparable() {
		s.values.learner = l
		s.values.vals, pred, err = parallelDecide(ctx, s.pool, s.testIdx, s.cfg.Workers, dl)
	} else {
		pred, err = parallelPredict(ctx, s.pool, s.testIdx, s.cfg.Workers, learners...)
	}
	if err != nil {
		return eval.Point{}, nil, err
	}
	pt := evalPoint(s.pool, s.testIdx, pred, len(s.labeled), trainTime)
	s.emit(PhaseDone{
		Phase: "evaluate", Iteration: s.iter, Elapsed: time.Since(start),
		Labels: len(s.labeled), Workers: par.Workers(s.cfg.Workers),
		PoolRemaining: len(s.unlabeled), Point: pt,
	})
	return pt, pred, nil
}

// selectPhase checks the stopping criteria and, if the run continues,
// asks the selector for the next batch. It writes the selector's latency
// breakdown into pt and returns the stop reason (StopNone to continue).
// An ensemble session's selector sees the uncovered labeled pairs, and a
// run with no candidate stops with StopSelectorEmpty.
func (s *Session) selectPhase(ctx context.Context, pt *eval.Point) ([]int, StopReason) {
	sctx := &SelectContext{
		Ctx:     ctx,
		Learner: s.activeLearner(), Pool: s.pool,
		LabeledIdx: s.labeled, Labels: s.labels,
		Unlabeled: s.unlabeled, Rand: s.rng,
		Workers: s.cfg.Workers,
		values:  s.values,
	}
	if s.ens != nil {
		sctx.LabeledIdx, sctx.Labels = s.ens.labeled, s.ens.labels
	}
	var batch []int
	reason := StopNone
	switch {
	case len(s.labeled) >= s.maxLabels:
		reason = StopBudget
	case s.budgetExhausted():
		reason = StopBudgetExhausted
	case len(s.unlabeled) == 0:
		reason = StopPoolExhausted
	case s.cfg.TargetF1 > 0 && pt.F1 >= s.cfg.TargetF1:
		reason = StopTargetF1
	case s.cfg.StabilityWindow > 0 && s.stableIters >= s.cfg.StabilityWindow:
		reason = StopStability
	case s.ens != nil && s.learner == nil:
		reason = StopSelectorEmpty
	default:
		k := min(s.cfg.BatchSize, s.maxLabels-len(s.labeled))
		batch = s.sel.Select(sctx, k)
		switch {
		case len(batch) == 0 && ctx.Err() != nil:
			// The selector bailed out because the run was cancelled
			// mid-select, not because it ran out of informative examples;
			// reporting StopSelectorEmpty here would let a cancelled run
			// masquerade as a normal termination.
			reason = StopCancelled
		case len(batch) == 0:
			reason = StopSelectorEmpty
		}
	}
	pt.CommitteeCreateTime = sctx.CommitteeCreate
	pt.ScoreTime = sctx.Score
	return batch, reason
}

func (s *Session) finish(reason StopReason, err error) {
	s.done = true
	s.reason = reason
	s.err = err
	s.res.LabelsUsed = len(s.labeled)
	s.res.Reason = reason
	s.emit(RunEnd{
		Iterations: len(s.res.Curve),
		LabelsUsed: s.res.LabelsUsed,
		Reason:     reason,
		Err:        err,
	})
}

func (s *Session) cancel(err error) error {
	s.finish(StopCancelled, err)
	return err
}

// ---- shared phase helpers (used by the phases and by Resume) ----

// gatherTraining copies the labeled set's vectors and labels into
// training slices. n caps the prefix taken (Resume replays historical
// prefixes; live phases pass len(labeled)).
func gatherTraining(pool *Pool, labeled []int, labels []bool, n int) ([]feature.Vector, []bool) {
	trainX := make([]feature.Vector, n)
	trainY := make([]bool, n)
	for j := 0; j < n; j++ {
		trainX[j] = pool.X[labeled[j]]
		trainY[j] = labels[j]
	}
	return trainX, trainY
}

// wholePool reports whether idx lists every row of a pool of n rows
// once, in row order: a Progressive session's test universe.
func wholePool(idx []int, n int) bool {
	if len(idx) != n {
		return false
	}
	for j, i := range idx {
		if i != j {
			return false
		}
	}
	return true
}

// evalPoint scores predictions over the test universe into a curve point.
func evalPoint(pool *Pool, testIdx []int, pred []bool, labels int, trainTime time.Duration) eval.Point {
	truth := make([]bool, len(testIdx))
	for j, i := range testIdx {
		truth[j] = pool.Truth[i]
	}
	conf := eval.Evaluate(pred, truth)
	return eval.Point{
		Labels:    labels,
		F1:        conf.F1(),
		Precision: conf.Precision(),
		Recall:    conf.Recall(),
		TrainTime: trainTime,
	}
}

// removeFromPool deletes the batch's indices from the unlabeled pool,
// preserving order.
func removeFromPool(unlabeled *[]int, batch []int) {
	if len(batch) == 0 {
		return
	}
	inBatch := make(map[int]struct{}, len(batch))
	for _, i := range batch {
		inBatch[i] = struct{}{}
	}
	next := (*unlabeled)[:0]
	for _, i := range *unlabeled {
		if _, ok := inBatch[i]; !ok {
			next = append(next, i)
		}
	}
	*unlabeled = next
}

// ---- serializable RNG ----

// countingSource wraps the standard math/rand source with draw counters,
// making the RNG position serializable: a Snapshot records how many
// values were drawn, and Resume reseeds the source with the snapshot's
// seed and replays that many draws. Every draw advances the underlying
// state exactly once, so the replayed source is state-identical — and
// because the wrapped source is rand.NewSource itself, Session runs are
// bit-identical to the old core.Run.
type countingSource struct {
	src      rand.Source64
	n63, n64 uint64
}

func newCountingSource(seed int64) *countingSource {
	return &countingSource{src: asSource64(rand.NewSource(seed))}
}

// Int63 implements rand.Source.
func (c *countingSource) Int63() int64 {
	c.n63++
	return c.src.Int63()
}

// Uint64 implements rand.Source64.
func (c *countingSource) Uint64() uint64 {
	c.n64++
	return c.src.Uint64()
}

// Seed implements rand.Source.
func (c *countingSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.n63, c.n64 = 0, 0
}

// replay advances a freshly seeded source to a snapshotted position. The
// final state depends only on the number of draws of each kind, not on
// how they were interleaved.
func (c *countingSource) replay(n63, n64 uint64) {
	for i := uint64(0); i < n63; i++ {
		c.src.Int63()
	}
	for i := uint64(0); i < n64; i++ {
		c.src.Uint64()
	}
	c.n63, c.n64 = n63, n64
}

// asSource64 upgrades a rand.Source to rand.Source64. rand.NewSource has
// returned a Source64 since Go 1.8; the shim covers hypothetical plain
// sources.
func asSource64(src rand.Source) rand.Source64 {
	if s64, ok := src.(rand.Source64); ok {
		return s64
	}
	return int63Source{src}
}

type int63Source struct{ rand.Source }

func (s int63Source) Uint64() uint64 {
	return uint64(s.Int63())>>31 | uint64(s.Int63())<<32
}
