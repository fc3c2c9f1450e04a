package core

import (
	"time"

	"github.com/alem/alem/internal/dataset"
	"github.com/alem/alem/internal/eval"
)

// Event is one typed notification from a Session's event stream. The
// engine emits events at every phase boundary of the Fig. 1a loop, so a
// run can be observed in flight — live progress in the CLIs, event logs
// in diag, curve building in eval — without the observer having to poll
// or wrap the learner.
//
// The concrete event types are IterationStart, PhaseDone, EvalDone,
// BatchSelected, OracleFault, OracleBatchDone, CandidateAccepted and
// RunEnd.
type Event interface{ isEvent() }

// IterationStart marks the beginning of one train→evaluate→select→label
// iteration.
type IterationStart struct {
	// Iteration is the zero-based iteration index.
	Iteration int
	// LabelsUsed is the cumulative Oracle-label count entering the
	// iteration (the seed bootstrap included).
	LabelsUsed int
	// PoolRemaining is the number of still-unlabeled candidates.
	PoolRemaining int
}

// EvalDone marks the end of the evaluate phase. Point carries the
// iteration's quality metrics and training time; the selector's latency
// breakdown is not known yet and arrives with BatchSelected.
type EvalDone struct {
	Iteration int
	Point     eval.Point
	// Elapsed is the wall-clock evaluation (prediction) time, which the
	// recorded curve point does not carry.
	Elapsed time.Duration
}

// BatchSelected marks the end of the select phase. It is not emitted on
// the final iteration (a finished run selects nothing).
type BatchSelected struct {
	Iteration int
	// Batch holds the pool indices about to be sent to the Oracle.
	Batch []int
	// CommitteeCreate and Score are the selector's latency breakdown,
	// matching the §3 latency metric.
	CommitteeCreate time.Duration
	Score           time.Duration
}

// OracleFault reports one failed label query: the labeler (after any
// retry policy wrapped around it) gave up on the pair, which has been
// requeued at the back of the unlabeled pool. The iteration degrades
// gracefully — training proceeds on whatever was granted — so a fault is
// an observation, not a run error; a round of nothing but faults ends
// the run with StopOracleFailed instead.
type OracleFault struct {
	// Iteration is the iteration the fault occurred in (the current value
	// during the seed phase).
	Iteration int
	// Index is the pool index whose query failed; Pair is its record pair.
	Index int
	Pair  dataset.PairKey
	// Err is the labeler's error, typically wrapping
	// resilience.ErrOracleExhausted.
	Err error
}

// PhaseDone is the engine's span event: one per completed phase of the
// Fig. 1a loop — seed once, then train/evaluate/select every iteration
// and label on every iteration that queried the Oracle — carrying the
// phase's wall time, label accounting and parallelism. It is the raw
// material of a run manifest: core.NewTraceObserver collects PhaseDone
// events into an obs.Trace, which serializes to JSONL (`almatch
// -trace`, `albench -trace`) and summarizes under `aldiag -trace`.
//
// PhaseDone complements rather than replaces the phase events that
// carry payloads of their own (EvalDone, BatchSelected): PhaseDone is
// the uniform timing record, and PhaseDone{Phase: "train"} is the train
// phase's only event, its Labels the size of the training set. For an
// ensemble session (NewEnsembleSession) that is the candidate's
// training set, the labeled pairs no accepted member covers.
type PhaseDone struct {
	// Phase is "seed", "train", "evaluate", "select" or "label".
	Phase string
	// Iteration is the zero-based iteration index, -1 for the seed phase
	// (it runs before the iteration loop).
	Iteration int
	// Elapsed is the phase's wall-clock duration.
	Elapsed time.Duration
	// Labels is the cumulative Oracle-label count after the phase (for
	// train, the training-set size; see above).
	Labels int
	// LabelsDelta is how many labels the phase granted (seed and label
	// phases; 0 elsewhere).
	LabelsDelta int
	// Batch is the number of examples handled: the selected batch size
	// for select, the attempted batch for label, 0 elsewhere.
	Batch int
	// Workers is the resolved parallel worker count available to the
	// phase (Config.Workers with 0 resolved to GOMAXPROCS).
	Workers int
	// PoolRemaining is the unlabeled-pool size after the phase.
	PoolRemaining int
}

// OracleBatchDone marks the end of one labeling round (the seed
// bootstrap's, or an iteration's): how many pairs were submitted to the
// labeler, the answer mix that came back, and the money it cost. Every
// round that completes emits it, free labelers' included.
type OracleBatchDone struct {
	// Iteration is the iteration the round ran in (the current value
	// during the seed phase).
	Iteration int
	// Pairs is how many pairs were submitted to the labeler this round
	// (cached WAL answers excluded — they cost nothing to re-consume).
	Pairs int
	// Answers is how many acknowledged answers (labels plus abstentions)
	// were applied this round, WAL-cached answers included.
	Answers int
	// Labels and Abstains split Answers by verdict; Failures counts
	// per-pair errors (requeued, unbilled).
	Labels   int
	Abstains int
	Failures int
	// Retired is how many pairs hit the abstain cutoff this round and
	// were removed from the pool for good.
	Retired int
	// Cost is the dollars billed this round; Spent is the session's
	// cumulative ledger total after the round.
	Cost  float64
	Spent float64
	// Elapsed is the round's wall-clock time.
	Elapsed time.Duration
}

// CandidateAccepted is emitted by ensemble sessions (§5.2) when a
// candidate classifier passes the precision acceptance test, after the
// iteration's label phase and before the next IterationStart.
type CandidateAccepted struct {
	Iteration int
	// Accepted is the ensemble size after this acceptance.
	Accepted int
}

// RunEnd marks the end of a run, successful or cancelled.
type RunEnd struct {
	// Iterations is the number of completed iterations (curve points).
	Iterations int
	LabelsUsed int
	Reason     StopReason
	// Err is the context error when Reason is StopCancelled, nil
	// otherwise.
	Err error
}

// ExternalEvent lets packages outside core extend the event vocabulary:
// embed it and the type satisfies Event, flowing through the same
// Observer plumbing (diag.EventLog renders such events via their
// EventLine method when they provide one). The serve layer's request
// events are the first use.
type ExternalEvent struct{}

func (ExternalEvent) isEvent() {}

func (IterationStart) isEvent()    {}
func (PhaseDone) isEvent()         {}
func (EvalDone) isEvent()          {}
func (BatchSelected) isEvent()     {}
func (OracleFault) isEvent()       {}
func (OracleBatchDone) isEvent()   {}
func (CandidateAccepted) isEvent() {}
func (RunEnd) isEvent()            {}

// StopReason explains why a run terminated.
type StopReason int

const (
	// StopNone means the run has not terminated yet.
	StopNone StopReason = iota
	// StopBudget: the MaxLabels budget is exhausted.
	StopBudget
	// StopPoolExhausted: no unlabeled candidates remain.
	StopPoolExhausted
	// StopTargetF1: the evaluated F1 reached Config.TargetF1.
	StopTargetF1
	// StopStability: predictions churned below StabilityEpsilon for
	// StabilityWindow consecutive iterations.
	StopStability
	// StopSelectorEmpty: the selector returned no examples (rule
	// learners terminate this way).
	StopSelectorEmpty
	// StopCancelled: the run's context was cancelled or timed out.
	StopCancelled
	// StopOracleFailed: an entire labeling round failed — the labeler is
	// down or exhausted every retry budget — so continuing could only
	// spin. The run's error wraps ErrLabelingStalled.
	StopOracleFailed
	// StopBudgetExhausted: the Config.MaxDollars budget can no longer
	// afford another answer from the priced batch oracle. Distinct from
	// StopBudget (the label-count budget): a run can end with labels to
	// spare but no money, and vice versa.
	//
	// New reasons are appended here so serialized values stay stable.
	StopBudgetExhausted
)

// String implements fmt.Stringer.
func (r StopReason) String() string {
	switch r {
	case StopNone:
		return "running"
	case StopBudget:
		return "label budget exhausted"
	case StopPoolExhausted:
		return "pool exhausted"
	case StopTargetF1:
		return "target F1 reached"
	case StopStability:
		return "predictions stable"
	case StopSelectorEmpty:
		return "selector returned no examples"
	case StopCancelled:
		return "cancelled"
	case StopOracleFailed:
		return "oracle failed"
	case StopBudgetExhausted:
		return "dollar budget exhausted"
	}
	return "unknown"
}

// Observer receives a Session's event stream. Observe is called
// synchronously from the engine goroutine, in phase order, so
// implementations see a consistent sequence but must return promptly.
type Observer interface {
	Observe(Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// Observe implements Observer.
func (f ObserverFunc) Observe(e Event) { f(e) }

// NewCurveObserver adapts an eval.CurveBuilder to the event stream: every
// EvalDone point is appended to the builder, giving consumers a live
// quality curve while the run is still in flight. (The builder's points
// carry training time but not selector latencies, which are only known
// after BatchSelected; the Session's Result curve has both.)
func NewCurveObserver(b *eval.CurveBuilder) Observer {
	return ObserverFunc(func(e Event) {
		if ed, ok := e.(EvalDone); ok {
			b.Add(ed.Point)
		}
	})
}
