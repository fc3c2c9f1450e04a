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

// ErrInvalidSnapshot is wrapped by every error that rejects the content
// of a snapshot or of the label WAL resumed with it: a truncated or
// malformed file, a config outside its ranges, state that contradicts
// itself or the pool, a WAL record that disagrees with the snapshot or
// names a pair outside the pool, an ensemble member out of order or
// outside the curve. errors.Is separates such a checkpoint, which only other files can fix,
// from a wiring mistake such as resuming on a session of the other kind.
var ErrInvalidSnapshot = errors.New("core: invalid snapshot")

// Snapshot is a serializable checkpoint of a Session: the labeled set,
// the RNG position (draw counters over the seeded source), the stability
// counters and the curve so far. A snapshot is always a consistent,
// resumable state; one taken between Step calls (or after a run cancelled
// at a phase boundary) is exact — Resume followed by Run produces the
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
// Resume rebuilds every member on the uncovered part of that iteration's
// labeled prefix. The next candidate is a fresh one, seeded from the
// replayed RNG.
//
// The one exception is a run cancelled mid-way through labeling a batch:
// the already-paid Oracle labels are kept (they cost money; rolling them
// back would discard them), so the resumed run continues from a labeled
// set the uninterrupted run never had — a consistent but different
// trajectory. Resuming the round-start snapshot with the label WAL closes
// even that gap: the resumed run re-selects the same batch
// deterministically and consumes the paid-for answers from the WAL
// instead of re-querying, which puts it back on the uninterrupted
// trajectory exactly.
//
// The pool, learner, selector and Oracle are wiring, not state: the
// session Resume is called on was built with them. Build it with a
// learner freshly constructed with the same constructor seed as the
// original. An Oracle implementing oracle.Stateful (Noisy does) has its
// random position captured in OracleDraws and replayed by Resume, so
// pass it freshly constructed with its original seed too; an oracle with
// hidden state that does not implement Stateful is outside the
// snapshot's scope, and resuming with one reproduces the labeled set but
// not future noise draws.
type Snapshot struct {
	// Config is the run's protocol with defaults applied.
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
	// carries no ledger; Resume derives the trivial ledger from the
	// labeled set.
	Ledger *CostLedger `json:"ledger,omitempty"`
	// AbstainCounts is the per-pending-pair billed-abstention tally the
	// starvation cutoff is checked against.
	AbstainCounts map[int]int `json:"abstain_counts,omitempty"`
	// Ensemble is an ensemble session's acceptance test and accepted
	// members (see Resume); nil for a plain session.
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
// previous checkpoint instead of a JSON syntax error. Only whitespace may
// follow the snapshot; anything else means the file was mangled after
// it, and is rejected as trailing data.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var sn Snapshot
	dec := json.NewDecoder(r)
	if err := dec.Decode(&sn); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("%w: truncated or empty (interrupted write?): %w", ErrInvalidSnapshot, err)
		}
		return nil, fmt.Errorf("%w: %w", ErrInvalidSnapshot, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing data after the snapshot", ErrInvalidSnapshot)
	}
	return &sn, nil
}

// Resume continues an interrupted run on s, a session just built with
// the run's wiring: NewSession or NewBatchSession for a plain run's
// snapshot, NewEnsembleSession for an ensemble's. Pass the learner (or
// Factory) and the labeler freshly constructed with their original
// seeds. The protocol is the snapshot's: s takes sn.Config, and an
// ensemble's τ and minimum positives, whatever it was built with. Only
// Config.Workers, machine tuning that snapshots leave out, keeps its
// construction value.
//
// Resume restores the labeled set, the RNG position, the stability
// counters, the cost ledger and the abstain tallies, then replays the
// learners' training history (see Snapshot for why the resumed curve is
// then identical to an uninterrupted run). wal is the label WAL the
// interrupted run was writing through (see LabelSink), or nil. Records
// up to the snapshot's answer cursor are cross-checked against its
// labeled set; records past it — answers the dead process paid for
// after its last checkpoint, billed abstentions included — are cached,
// and the resumed run consumes them instead of re-querying the labeler,
// re-charging exactly what the crashed run paid. Because selection is
// deterministic, the resumed run re-selects the pairs the dead one did
// and the cached answers land on the same indices, making the resumed
// trajectory bit-identical to an uninterrupted run — provided no pair
// exhausted its retry budget, or failed, after the checkpoint while
// still pending at the kill (see resilience.FaultyOracle).
//
// An oracle.Stateful in the labeler chain is advanced to the snapshot's
// position, and an oracle.PairAdvancer's per-pair attempt ordinals are
// realigned from the WAL. Attach the same WAL with SetLabelSink
// afterwards: its appends are idempotent, so the replayed answers no-op
// and fresh ones extend it. A warm-start session additionally needs
// SetWarmStart re-attached before Step.
//
// A session that has stepped, or one of the other kind, is refused with
// a plain error: that is a wiring mistake. Snapshot or WAL content that
// cannot be resumed is refused with an error wrapping
// ErrInvalidSnapshot. A failed Resume may leave s partly loaded; build a
// new session to try again.
func (s *Session) Resume(sn *Snapshot, wal []resilience.LabelRecord) error {
	if s.seeded || s.done || len(s.res.Curve) > 0 {
		return fmt.Errorf("core: Resume needs a session that has not stepped yet")
	}
	e := s.ens
	switch {
	case sn.Ensemble != nil && e == nil:
		return fmt.Errorf("core: snapshot is of an ensemble session; resume it on a session built by NewEnsembleSession")
	case sn.Ensemble == nil && e != nil:
		return fmt.Errorf("core: snapshot is of a plain session; resume it on a session built by NewBatchSession")
	}
	if err := sn.Config.Validate(); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalidSnapshot, err)
	}
	workers := s.cfg.Workers
	s.cfg = sn.Config.withDefaults()
	s.cfg.Workers = workers
	var members []EnsembleMember
	if e != nil {
		e.Tau, e.MinPositive = sn.Ensemble.Tau, sn.Ensemble.MinPositive
		members = sn.Ensemble.Members
	}
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
			if rec.Index < 0 || rec.Index >= s.pool.Len() {
				return fmt.Errorf("%w: WAL record %d names pair %d outside the pool of %d pairs", ErrInvalidSnapshot,
					rec.Seq, rec.Index, s.pool.Len())
			}
			if rec.Seq > s.ledger.Answers {
				s.wal[rec.Index] = append(s.wal[rec.Index], walAnswer(rec))
				continue
			}
			if !rec.Abstained() {
				labelOrd++
				if labelOrd > len(sn.Labeled) || sn.Labeled[labelOrd-1] != rec.Index || sn.Labels[labelOrd-1] != rec.Label {
					return fmt.Errorf("%w: label WAL record %d (index %d) disagrees with snapshot", ErrInvalidSnapshot,
						rec.Seq, rec.Index)
				}
			}
			if s.pairAdv != nil {
				s.pairAdv.AdvancePair(s.pool.Pairs[rec.Index], 1)
			}
		}
	}
	// Construction seeded the RNG from the caller's config; the
	// snapshot's draws were counted from its own seed.
	s.src.Seed(sn.Config.Seed)
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

	// Replay the training history. Iteration i trained on the first
	// Curve[i].Labels draws of the labeled set (labels are cumulative and
	// append-only, so the prefix is the exact historical training set).
	// A plain session retrains its learner on every prefix, skipping the
	// warm-start iterations whose prefix could not train (empty or
	// single-class — the warm learner served instead). An ensemble
	// session rebuilds only its accepted members: member k is
	// factory(seed_k) trained on the pairs of its iteration's prefix that
	// members 1..k−1 leave uncovered. Every other candidate was
	// discarded, and the next is drawn from the replayed RNG.
	for it, pt := range sn.Curve {
		switch {
		case e != nil:
			if k := len(e.members); k < len(members) && members[k].Iteration == it {
				labeled, labels := e.uncovered(s.pool, s.labeled, s.labels, pt.Labels)
				c := e.factory(members[k].Seed)
				c.Train(gatherTraining(s.pool, labeled, labels, len(labeled)))
				e.members = append(e.members, c)
				e.Members = append(e.Members, members[k])
			}
		case s.cfg.WarmStartModel == "" || trainablePrefix(s.labels, pt.Labels):
			s.learner.Train(gatherTraining(s.pool, s.labeled, s.labels, pt.Labels))
		}
	}
	if e != nil && len(e.members) < len(members) {
		return fmt.Errorf("%w: ensemble member %d, of iteration %d, is out of order or outside the %d-point curve",
			ErrInvalidSnapshot, len(e.members), members[len(e.members)].Iteration, len(sn.Curve))
	}
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
// fit the pool they are being resumed against.
func (sn *Snapshot) validate(pool *Pool) error {
	if len(sn.Labeled) != len(sn.Labels) {
		return fmt.Errorf("%w: labeled/labels length mismatch: %d vs %d", ErrInvalidSnapshot,
			len(sn.Labeled), len(sn.Labels))
	}
	for _, idx := range [][]int{sn.Labeled, sn.Unlabeled, sn.TestIdx} {
		for _, i := range idx {
			if i < 0 || i >= pool.Len() {
				return fmt.Errorf("%w: index %d outside pool of %d pairs", ErrInvalidSnapshot, i, pool.Len())
			}
		}
	}
	// A pair listed twice would be trained on twice, or paid for again.
	listed := make([]bool, pool.Len())
	for _, idx := range [][]int{sn.Labeled, sn.Unlabeled} {
		for _, i := range idx {
			if listed[i] {
				return fmt.Errorf("%w: pair %d listed twice across its labeled and unlabeled sets", ErrInvalidSnapshot, i)
			}
			listed[i] = true
		}
	}
	// The stability check compares each prediction with the last one.
	if len(sn.PrevPred) > 0 && len(sn.PrevPred) != len(sn.TestIdx) {
		return fmt.Errorf("%w: %d previous predictions for a test universe of %d pairs", ErrInvalidSnapshot,
			len(sn.PrevPred), len(sn.TestIdx))
	}
	for _, pt := range sn.Curve {
		if pt.Labels < 0 || pt.Labels > len(sn.Labeled) {
			return fmt.Errorf("%w: curve point trained on %d labels but %d are recorded", ErrInvalidSnapshot,
				pt.Labels, len(sn.Labeled))
		}
	}
	return nil
}
