package core

import (
	"context"
	"fmt"
	"time"

	"github.com/alem/alem/internal/dataset"
	"github.com/alem/alem/internal/oracle"
	"github.com/alem/alem/internal/resilience"
)

// budgetEps absorbs float accumulation error in dollar-budget checks so a
// run that can afford exactly its last answer is not stopped one short.
const budgetEps = 1e-9

// CostLedger is a session's money and answer accounting. Spent is the
// cumulative dollars billed across the run; Answers counts every
// acknowledged response (labels plus abstentions — it is also the WAL
// sequence cursor); Labels and Abstains split it by verdict. Per-pair
// failures are never billed and never counted.
type CostLedger struct {
	Spent    float64 `json:"spent"`
	Answers  int     `json:"answers"`
	Labels   int     `json:"labels"`
	Abstains int     `json:"abstains"`
}

// trivial reports whether the ledger carries no information beyond the
// labeled set itself (no money spent, no abstentions), in which case a
// Snapshot omits it and Resume derives it, so a free session's
// snapshot carries no ledger.
func (l CostLedger) trivial() bool { return l.Spent == 0 && l.Abstains == 0 }

// Ledger returns the session's cost accounting. Every session keeps
// one; a free oracle's answers are all unbilled labels.
func (s *Session) Ledger() CostLedger { return s.ledger }

// SetWarmStart attaches a pre-trained learner for transfer warm-start:
// the session skips the random seed bootstrap and lets the warm learner
// drive evaluation and selection until the labeled set contains both
// classes, at which point the session's own learner takes over under the
// usual retrain-from-scratch protocol. The warm learner is never
// trained. Call before the first Step (and again after Resume — learner
// wiring is not serialized; Step refuses to run a warm-start session
// whose learner is missing).
func (s *Session) SetWarmStart(l Learner) error {
	if l == nil {
		return fmt.Errorf("core: SetWarmStart requires a non-nil learner")
	}
	if s.ens != nil {
		return fmt.Errorf("core: SetWarmStart does not apply to an ensemble session")
	}
	s.warm = l
	if s.cfg.WarmStartModel == "" {
		s.cfg.WarmStartModel = "inline"
	}
	return nil
}

// useWarm reports whether the warm-start learner is still the active
// model: it hands over permanently once the labeled set can train the
// session's own learner (non-empty, both classes present).
func (s *Session) useWarm() bool {
	return s.warm != nil && !trainablePrefix(s.labels, len(s.labels))
}

// trainablePrefix reports whether the first n labels can train a
// learner: a non-empty set containing both classes.
func trainablePrefix(labels []bool, n int) bool {
	return n > 0 && bothClasses(labels[:n])
}

// activeLearner is the model driving evaluation and selection: the warm
// learner while warm-start is in effect, the session's own otherwise.
func (s *Session) activeLearner() Learner {
	if s.useWarm() {
		return s.warm
	}
	return s.learner
}

// abstainCutoff resolves Config.AbstainCutoff's default at use (not in
// withDefaults, so legacy snapshot bytes are unchanged).
func (s *Session) abstainCutoff() int {
	if s.cfg.AbstainCutoff > 0 {
		return s.cfg.AbstainCutoff
	}
	return DefaultAbstainCutoff
}

// budgetExhausted reports whether the dollar budget can no longer afford
// another answer at the oracle's worst-case price. Free oracles
// (MaxAnswerCost 0) never exhaust a budget.
func (s *Session) budgetExhausted() bool {
	return s.cfg.MaxDollars > 0 && s.maxCost > 0 &&
		s.ledger.Spent+s.maxCost > s.cfg.MaxDollars+budgetEps
}

// journal durably records one acknowledged answer in the sink, if any.
// An error is fatal to the run: an answer that cannot be made durable
// must not be paid for twice.
func (s *Session) journal(rec resilience.LabelRecord) error {
	if s.sink == nil {
		return nil
	}
	if err := s.sink.AppendRecord(rec); err != nil {
		return fmt.Errorf("core: recording label in sink: %w", err)
	}
	return nil
}

// applyGrant moves one answered pair into the labeled set, bills its
// cost and journals it.
func (s *Session) applyGrant(i int, lab bool, cost float64) error {
	s.labeled = append(s.labeled, i)
	s.labels = append(s.labels, lab)
	s.ledger.Answers++
	s.ledger.Labels++
	s.ledger.Spent += cost
	delete(s.abstains, i)
	return s.journal(resilience.LabelRecord{Seq: s.ledger.Answers, Index: i, Label: lab, Cost: cost})
}

// applyAbstain bills and journals one abstention and advances the pair's
// abstain count, reporting whether the pair just hit the cutoff and must
// be retired from the pool.
func (s *Session) applyAbstain(i int, cost float64) (retired bool, err error) {
	s.ledger.Answers++
	s.ledger.Abstains++
	s.ledger.Spent += cost
	s.abstains[i]++
	if err := s.journal(resilience.LabelRecord{
		Seq: s.ledger.Answers, Index: i, Verdict: "abstain", Cost: cost,
	}); err != nil {
		return false, err
	}
	if s.abstains[i] >= s.abstainCutoff() {
		delete(s.abstains, i)
		return true, nil
	}
	return false, nil
}

// advanceCached realigns the oracle's randomness past one answer a
// crashed run already received and this run consumed from the WAL cache:
// sequential-stream oracles (oracle.Stateful) skip one draw, per-pair
// keyed oracles (oracle.PairAdvancer) skip one attempt ordinal.
func (s *Session) advanceCached(i int) {
	if s.stateful != nil {
		s.stateful.Advance(1)
	}
	if s.pairAdv != nil {
		s.pairAdv.AdvancePair(s.pool.Pairs[i], 1)
	}
}

// labelBatch asks the labeler for each index in batch, in order, and
// degrades gracefully under faults: granted labels move into the labeled
// set, billed abstentions are requeued at the back of the unlabeled pool
// (or retired at the abstain cutoff), failed indices are requeued too,
// so the run trains on what it got and comes back to them later. Every
// acknowledged answer is billed to the ledger and journaled in the sink
// before the labeler is asked anything else.
//
// The walk is reservation-based: batch indices are admitted in order
// while the dollar budget can still cover one worst-case answer each
// (an unaffordable suffix stays in the pool untouched — the next
// selectPhase stops the run with StopBudgetExhausted). An index holding
// WAL-cached answers from a crashed run consumes one of them, realigning
// the oracle's randomness past it, instead of querying; the rest go to
// LabelBatch in runs up to the next cached index, and LabelBatch answers
// a non-empty prefix of each run, the unanswered remainder being
// submitted again. So cached and live answers land in round order, and a
// resumed run's ledger and noise draws equal an uninterrupted one's.
//
// A context error stops the round at once, leaving the applied prefix in
// place and the unattempted remainder where it was. A LabelBatch error,
// or an empty answer, turns the run's unanswered remainder into faults.
// A round in which every query failed returns ErrLabelingStalled —
// training on nothing new would loop forever against a dead labeler.
func (s *Session) labelBatch(ctx context.Context, batch []int) error {
	start := time.Now()
	n := len(batch)
	if s.cfg.MaxDollars > 0 && s.maxCost > 0 {
		n = 0
		for n < len(batch) && s.ledger.Spent+s.maxCost*float64(n+1) <= s.cfg.MaxDollars+budgetEps {
			n++
		}
	}
	process := batch[:n]
	pairs := make([]dataset.PairKey, len(process))
	for j, i := range process {
		pairs[j] = s.pool.Pairs[i]
	}

	ev := OracleBatchDone{Iteration: s.iter}
	var drop, requeue []int
	cached := 0
	fault := func(i int, err error) {
		s.emit(OracleFault{Iteration: s.iter, Index: i, Pair: s.pool.Pairs[i], Err: err})
		ev.Failures++
		requeue = append(requeue, i)
	}
	// apply books one answer for pool index i.
	apply := func(i int, a oracle.Answer) error {
		switch {
		case a.Err != nil:
			fault(i, a.Err)
			return nil
		case a.Verdict == oracle.VerdictAbstain:
			retired, err := s.applyAbstain(i, a.Cost)
			if err != nil {
				return err
			}
			ev.Abstains++
			if retired {
				drop = append(drop, i)
				ev.Retired++
			} else {
				requeue = append(requeue, i)
			}
		default:
			if err := s.applyGrant(i, a.Verdict == oracle.VerdictMatch, a.Cost); err != nil {
				return err
			}
			ev.Labels++
			drop = append(drop, i)
		}
		ev.Cost += a.Cost
		return nil
	}

	var fatal error
walk:
	for j := 0; j < len(process); {
		if fatal = ctx.Err(); fatal != nil {
			break
		}
		if ans := s.wal[process[j]]; len(ans) > 0 {
			i := process[j]
			if len(ans) == 1 {
				delete(s.wal, i)
			} else {
				s.wal[i] = ans[1:]
			}
			s.advanceCached(i)
			cached++
			if fatal = apply(i, ans[0]); fatal != nil {
				break
			}
			j++
			continue
		}
		end := j + 1
		for end < len(process) && len(s.wal[process[end]]) == 0 {
			end++
		}
		answers, err := s.batcher.LabelBatch(ctx, pairs[j:end])
		answers = answers[:min(len(answers), end-j)]
		for _, a := range answers {
			if fatal = apply(process[j], a); fatal != nil {
				break walk
			}
			j++
		}
		if j == end || (err == nil && len(answers) > 0) {
			continue
		}
		// The call died before answering the rest of the run: abort on
		// cancellation, otherwise requeue the remainder as faults.
		if err != nil && ctx.Err() != nil {
			fatal = ctx.Err()
			break
		}
		if err == nil {
			err = fmt.Errorf("core: batch oracle answered 0 of %d pairs", end-j)
		}
		for ; j < end; j++ {
			fault(process[j], err)
		}
	}

	removeFromPool(&s.unlabeled, drop)
	if len(requeue) > 0 {
		removeFromPool(&s.unlabeled, requeue)
		s.unlabeled = append(s.unlabeled, requeue...)
	}
	if fatal != nil {
		return fatal
	}
	ev.Pairs = len(process) - cached
	ev.Answers = ev.Labels + ev.Abstains
	ev.Spent = s.ledger.Spent
	ev.Elapsed = time.Since(start)
	s.emit(ev)
	if ev.Answers == 0 && ev.Failures > 0 {
		return fmt.Errorf("%w: %d of %d queries failed", ErrLabelingStalled, ev.Failures, len(batch))
	}
	return nil
}
