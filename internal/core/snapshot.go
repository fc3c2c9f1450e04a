package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"github.com/alem/alem/internal/eval"
	"github.com/alem/alem/internal/oracle"
	"github.com/alem/alem/internal/resilience"
)

// Snapshot is a serializable checkpoint of a Session: the labeled set,
// the RNG position (draw counters over the seeded source), the stability
// counters and the curve so far. A snapshot is always a consistent,
// resumable state; one taken between Step calls (or after a run cancelled
// at a phase boundary) is exact — Restore followed by Run produces the
// same curve the uninterrupted run would have — because
//
//   - the RNG is replayed draw-for-draw on the same seed,
//   - the learner is retrained on every historical labeled prefix (the
//     curve records each iteration's training-set size), reproducing both
//     its model state and its internal RNG position under the benchmark's
//     retrain-from-scratch protocol.
//
// An ensemble session's snapshot is exact in the same way. Its Ensemble
// field records each accepted member's iteration and factory seed, and
// RestoreEnsembleWithWAL rebuilds every member on the uncovered part of
// that iteration's labeled prefix. The next candidate is a fresh one,
// seeded from the replayed RNG.
//
// The one exception is a run cancelled mid-way through labeling a batch:
// the already-paid Oracle labels are kept (they cost money; rolling them
// back would discard them), so the resumed run continues from a labeled
// set the uninterrupted run never had — a consistent but different
// trajectory. RestoreBatchWithWAL closes even that gap: with a label WAL
// attached, the resumed run re-selects the same batch deterministically
// and consumes the paid-for answers from the WAL instead of re-querying,
// which puts it back on the uninterrupted trajectory exactly.
//
// The pool, learner, selector and Oracle are wiring, not state: Restore
// takes them as arguments. Pass a learner freshly constructed with the
// same constructor seed as the original. An Oracle implementing
// oracle.Stateful (Noisy does) has its random position captured in
// OracleDraws and replayed by Restore, so pass it freshly constructed
// with its original seed too; an oracle with hidden state that does not
// implement Stateful is outside the snapshot's scope, and resuming with
// one reproduces the labeled set but not future noise draws.
type Snapshot struct {
	// Config is the run's protocol with defaults applied. OnIteration is
	// a function and is not serialized; re-set it after Restore if used.
	Config Config `json:"config"`
	// Draws63 and Draws64 are the RNG draw counters.
	Draws63 uint64 `json:"draws63"`
	Draws64 uint64 `json:"draws64"`
	// OracleDraws is the oracle's own random position (0 when the oracle
	// exposes none — see oracle.Stateful).
	OracleDraws uint64 `json:"oracle_draws,omitempty"`
	// Seeded records whether the seed phase has run.
	Seeded    bool `json:"seeded"`
	Iteration int  `json:"iteration"`
	MaxLabels int  `json:"max_labels"`
	// TestIdx is the evaluation universe; Labeled/Labels/Unlabeled are
	// the labeled-set bookkeeping, in draw order.
	TestIdx   []int  `json:"test_idx"`
	Labeled   []int  `json:"labeled"`
	Labels    []bool `json:"labels"`
	Unlabeled []int  `json:"unlabeled"`
	// PrevPred and StableIters are the stability-stop counters.
	PrevPred    []bool `json:"prev_pred,omitempty"`
	StableIters int    `json:"stable_iters"`
	// Curve is the partial learning curve.
	Curve eval.Curve `json:"curve"`
	// Ledger is the session's cost accounting, omitted when trivial
	// (nothing spent, nothing abstained) so a free session's snapshot
	// carries no ledger; Restore derives the trivial ledger from the
	// labeled set.
	Ledger *CostLedger `json:"ledger,omitempty"`
	// AbstainCounts is the per-pending-pair billed-abstention tally the
	// starvation cutoff is checked against.
	AbstainCounts map[int]int `json:"abstain_counts,omitempty"`
	// Ensemble is an ensemble session's acceptance test and accepted
	// members (see RestoreEnsembleWithWAL); nil for a plain session.
	Ensemble *EnsembleState `json:"ensemble,omitempty"`
}

// Snapshot captures the session's current state. Call between Step
// invocations (or after Run returned, cancelled or not) for an exact
// checkpoint; the receiver keeps running independently afterwards.
func (s *Session) Snapshot() *Snapshot {
	var oracleDraws uint64
	if s.stateful != nil {
		oracleDraws = s.stateful.Draws()
	}
	var ledger *CostLedger
	if !s.ledger.trivial() {
		l := s.ledger
		ledger = &l
	}
	var abstains map[int]int
	if len(s.abstains) > 0 {
		abstains = make(map[int]int, len(s.abstains))
		for i, n := range s.abstains {
			abstains[i] = n
		}
	}
	return &Snapshot{
		Config:        s.cfg,
		Draws63:       s.src.n63,
		Draws64:       s.src.n64,
		OracleDraws:   oracleDraws,
		Seeded:        s.seeded,
		Iteration:     s.iter,
		MaxLabels:     s.maxLabels,
		TestIdx:       append([]int(nil), s.testIdx...),
		Labeled:       append([]int(nil), s.labeled...),
		Labels:        append([]bool(nil), s.labels...),
		Unlabeled:     append([]int(nil), s.unlabeled...),
		PrevPred:      append([]bool(nil), s.prevPred...),
		StableIters:   s.stableIters,
		Curve:         append(eval.Curve(nil), s.res.Curve...),
		Ledger:        ledger,
		AbstainCounts: abstains,
		Ensemble:      s.ens.snapshot(),
	}
}

// Encode serializes the snapshot as JSON.
func (sn *Snapshot) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sn)
}

// ReadSnapshot deserializes a snapshot written by Encode. A truncated or
// empty file — the signature of a non-atomic write interrupted by a
// crash — is reported as such, pointing the operator at the intact
// previous checkpoint instead of a JSON syntax error.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var sn Snapshot
	if err := json.NewDecoder(r).Decode(&sn); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("core: snapshot is truncated or empty (interrupted write?): %w", err)
		}
		return nil, fmt.Errorf("core: reading snapshot: %w", err)
	}
	return &sn, nil
}

// Restore rebuilds a Session from a snapshot so an interrupted run can
// continue where it left off. The learner must be freshly constructed
// with the same constructor seed as the original run's; Restore replays
// every historical training on it (one per curve point, on the recorded
// labeled prefix), which reproduces the learner's model and internal RNG
// state exactly — see Snapshot for why the resumed curve is then
// identical to an uninterrupted run. It is RestoreBatchWithWAL over
// resilience.BatchOf, without a WAL.
func Restore(pool *Pool, learner Learner, sel Selector, o oracle.Oracle, sn *Snapshot) (*Session, error) {
	return RestoreBatchWithWAL(pool, learner, sel, resilience.BatchOf(resilience.Wrap(o)), sn, nil)
}

// RestoreBatchWithWAL rebuilds a Session from a snapshot plus the label
// WAL the crashed run was writing through (see LabelSink). The cost
// ledger and abstain tallies are restored alongside the labeled set. WAL
// records up to the snapshot's answer cursor are cross-checked against
// its labeled set; records past it — answers the dead process paid for
// after its last checkpoint, billed abstentions included — are cached,
// and the resumed run consumes them instead of re-querying the labeler,
// re-charging exactly what the crashed run paid. Because selection is
// deterministic (the RNG position and learner state are replayed
// exactly), the resumed run re-selects the same pairs the dead one did
// and the cached answers land on the same indices, making the resumed
// trajectory bit-identical to an uninterrupted run — provided no pair
// exhausted its retry budget, or failed, after the checkpoint while
// still pending at the kill (see resilience.FaultyOracle).
//
// Pass the labeler freshly constructed with its original seed; an
// oracle.Stateful in its chain is advanced to the snapshot's position,
// and an oracle.PairAdvancer's per-pair attempt ordinals are realigned
// from the WAL. Attach the same WAL with SetLabelSink afterwards: its
// appends are idempotent, so the replayed answers no-op and fresh ones
// extend it. A warm-start session additionally needs SetWarmStart
// re-attached before Step. An ensemble session's snapshot is rejected:
// restore it with RestoreEnsembleWithWAL.
func RestoreBatchWithWAL(pool *Pool, learner Learner, sel Selector, bo oracle.BatchOracle, sn *Snapshot, wal []resilience.LabelRecord) (*Session, error) {
	if sn.Ensemble != nil {
		return nil, fmt.Errorf("core: snapshot is of an ensemble session; restore it with RestoreEnsembleWithWAL")
	}
	s, err := NewBatchSession(pool, learner, sel, bo, sn.Config)
	if err != nil {
		return nil, err
	}
	if err := s.restore(sn, wal); err != nil {
		return nil, err
	}

	// Replay historical trainings: iteration i trained on the first
	// Curve[i].Labels draws of the labeled set (labels are cumulative and
	// append-only, so the prefix is the exact historical training set).
	// Warm-start iterations whose prefix could not train (empty or
	// single-class — the warm learner served instead) are skipped, which
	// reproduces the live run's training history exactly.
	warmStart := sn.Config.WarmStartModel != ""
	for _, pt := range sn.Curve {
		if warmStart && !trainablePrefix(s.labels, pt.Labels) {
			continue
		}
		trainX, trainY := gatherTraining(pool, s.labeled, s.labels, pt.Labels)
		learner.Train(trainX, trainY)
	}
	return s, nil
}

// restore loads a snapshot's state, and the WAL's answers past it, into
// a freshly constructed session; the learners are the caller's to
// replay.
func (s *Session) restore(sn *Snapshot, wal []resilience.LabelRecord) error {
	if err := sn.validate(s.pool); err != nil {
		return err
	}
	if sn.Ledger != nil {
		s.ledger = *sn.Ledger
	} else {
		// A trivial ledger is omitted from snapshots; every labeled pair
		// was one acknowledged, unbilled answer.
		s.ledger = CostLedger{Answers: len(sn.Labeled), Labels: len(sn.Labeled)}
	}
	for i, n := range sn.AbstainCounts {
		s.abstains[i] = n
	}
	if len(wal) > 0 {
		// Walk the WAL against the checkpoint's answer cursor: records at
		// or below it are already reflected in the snapshot (labels are
		// cross-checked against the labeled set, and both kinds realign a
		// per-pair-keyed oracle's attempt ordinals); records past it are
		// answers the dead process paid for after its last checkpoint,
		// cached here for consumption instead of re-querying.
		s.wal = make(map[int][]oracle.Answer)
		labelOrd := 0
		for _, rec := range wal {
			if rec.Seq > s.ledger.Answers {
				s.wal[rec.Index] = append(s.wal[rec.Index], walAnswer(rec))
				continue
			}
			if !rec.Abstained() {
				labelOrd++
				if labelOrd > len(sn.Labeled) || sn.Labeled[labelOrd-1] != rec.Index || sn.Labels[labelOrd-1] != rec.Label {
					return fmt.Errorf("core: label WAL record %d (index %d) disagrees with snapshot",
						rec.Seq, rec.Index)
				}
			}
			if s.pairAdv != nil {
				s.pairAdv.AdvancePair(s.pool.Pairs[rec.Index], 1)
			}
		}
	}
	s.src.replay(sn.Draws63, sn.Draws64)
	if s.stateful != nil && sn.OracleDraws > 0 {
		s.stateful.Advance(sn.OracleDraws)
	}
	s.seeded = sn.Seeded
	s.iter = sn.Iteration
	s.maxLabels = sn.MaxLabels
	s.testIdx = append([]int(nil), sn.TestIdx...)
	s.labeled = append([]int(nil), sn.Labeled...)
	s.labels = append([]bool(nil), sn.Labels...)
	s.unlabeled = append([]int(nil), sn.Unlabeled...)
	s.prevPred = append([]bool(nil), sn.PrevPred...)
	s.stableIters = sn.StableIters
	s.res.Curve = append(eval.Curve(nil), sn.Curve...)
	s.res.TestSize = len(s.testIdx)
	return nil
}

// walAnswer turns a WAL record back into the answer it journaled.
func walAnswer(rec resilience.LabelRecord) oracle.Answer {
	v := oracle.VerdictNonMatch
	switch {
	case rec.Abstained():
		v = oracle.VerdictAbstain
	case rec.Label:
		v = oracle.VerdictMatch
	}
	return oracle.Answer{Verdict: v, Cost: rec.Cost}
}

// validate rejects snapshots that are internally inconsistent or do not
// fit the pool they are being restored against.
func (sn *Snapshot) validate(pool *Pool) error {
	if len(sn.Labeled) != len(sn.Labels) {
		return fmt.Errorf("core: snapshot labeled/labels length mismatch: %d vs %d",
			len(sn.Labeled), len(sn.Labels))
	}
	for _, idx := range [][]int{sn.Labeled, sn.Unlabeled, sn.TestIdx} {
		for _, i := range idx {
			if i < 0 || i >= pool.Len() {
				return fmt.Errorf("core: snapshot index %d outside pool of %d pairs", i, pool.Len())
			}
		}
	}
	for _, pt := range sn.Curve {
		if pt.Labels > len(sn.Labeled) {
			return fmt.Errorf("core: snapshot curve point trained on %d labels but only %d are recorded",
				pt.Labels, len(sn.Labeled))
		}
	}
	return nil
}
