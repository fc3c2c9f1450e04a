package core

// Chaos tests for the costly-oracle path: a priced, abstaining simulated
// LLM labeler is killed mid-batch and resumed from Snapshot + WAL; the
// resumed run must reproduce the uninterrupted run's curve AND its cost
// ledger exactly — no answer charged twice, no acknowledged answer
// dropped. Run with `make chaos`.

import (
	"bytes"
	"context"
	"errors"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"github.com/alem/alem/internal/dataset"
	"github.com/alem/alem/internal/linear"
	"github.com/alem/alem/internal/oracle"
	"github.com/alem/alem/internal/resilience"
)

// simPoolOracle builds a simulated LLM labeler over the pool's truth.
func simPoolOracle(p *Pool, cfg oracle.LLMSimConfig, seed int64) *oracle.SimulatedLLMOracle {
	return oracle.NewSimulatedLLM(poolDataset(p), cfg, seed)
}

// batchKillSwitch simulates a hard kill mid-batch: once `after` total
// answers have been acknowledged, it truncates the in-flight batch at
// the limit, cancels the run's context and reports the acknowledged
// prefix with context.Canceled — a process that died between billing one
// answer and receiving the next. Only the pairs actually answered reach
// the inner oracle, so its per-pair attempt state matches exactly what
// was acknowledged.
type batchKillSwitch struct {
	inner    oracle.BatchOracle
	after    int
	answered int
	kill     context.CancelFunc
}

func (k *batchKillSwitch) LabelBatch(ctx context.Context, pairs []dataset.PairKey) ([]oracle.Answer, error) {
	remain := k.after - k.answered
	if remain <= 0 {
		k.kill()
		return nil, context.Canceled
	}
	if len(pairs) <= remain {
		out, err := k.inner.LabelBatch(ctx, pairs)
		k.answered += len(out)
		return out, err
	}
	out, _ := k.inner.LabelBatch(ctx, pairs[:remain])
	k.answered += len(out)
	k.kill()
	return out, context.Canceled
}

func (k *batchKillSwitch) Queries() int      { return k.inner.Queries() }
func (k *batchKillSwitch) UnwrapOracle() any { return k.inner }

// TestChaosBatchKillResumeLedgerExact is the costly-oracle acceptance
// scenario: a priced run with ~15% abstentions and a dollar budget is
// killed mid-batch, resumed from the last checkpoint plus the WAL, and
// must reproduce the uninterrupted run's curve, stop reason and — to the
// cent — its cost ledger, while re-buying not a single answer the dead
// process paid for.
//
// FailRate stays 0: failed answers are not journaled (they are unbilled
// and carry no verdict), so per-pair attempt realignment across a resume
// is only guaranteed in their absence — the same documented precondition
// the per-pair chaos suite has for exhausted retries.
func TestChaosBatchKillResumeLedgerExact(t *testing.T) {
	pool := syntheticPool(600, 41)
	simCfg := oracle.LLMSimConfig{
		AbstainRate: 0.15,
		NoiseRate:   0.1,
		Price:       oracle.PriceTable{PerLabel: 0.002, PerAbstain: 0.0005},
	}
	const simSeed = 7
	cfg := Config{Seed: 41, MaxLabels: 200, MaxDollars: 0.16}

	// Reference: the uninterrupted priced run.
	refSim := simPoolOracle(pool, simCfg, simSeed)
	ref, err := NewBatchSession(pool, linear.NewSVM(41), Margin{}, refSim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ref.Reason() != StopBudgetExhausted {
		t.Fatalf("reference reason = %v, want StopBudgetExhausted (tune MaxDollars)", ref.Reason())
	}
	refLedger := ref.Ledger()
	if refLedger.Abstains == 0 {
		t.Fatal("reference run saw no abstentions; the scenario needs them")
	}
	if refLedger.Spent > cfg.MaxDollars+budgetEps {
		t.Fatalf("reference overspent: %.6f > %.6f", refLedger.Spent, cfg.MaxDollars)
	}

	// Victim: same seeds, checkpoint every step, WAL every answer, killed
	// mid-batch after 63 acknowledged answers.
	dir := t.TempDir()
	walPath := filepath.Join(dir, "answers.wal")
	wal, _, err := resilience.OpenLabelWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ks := &batchKillSwitch{inner: simPoolOracle(pool, simCfg, simSeed), after: 63, kill: cancel}
	victim, err := NewBatchSession(pool, linear.NewSVM(41), Margin{}, ks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if victim.maxCost != simCfg.Price.Max() {
		t.Fatalf("victim maxCost = %g, want %g discovered through the kill switch",
			victim.maxCost, simCfg.Price.Max())
	}
	victim.SetLabelSink(wal)
	var lastSnap bytes.Buffer
	if err := victim.Snapshot().Encode(&lastSnap); err != nil {
		t.Fatal(err)
	}
	for {
		done, err := victim.Step(ctx)
		if err != nil {
			break // the kill
		}
		if done {
			t.Fatal("victim finished before the kill fired")
		}
		lastSnap.Reset()
		if err := victim.Snapshot().Encode(&lastSnap); err != nil {
			t.Fatal(err)
		}
	}
	wal.Close()
	if victim.Reason() != StopCancelled {
		t.Fatalf("victim reason = %v, want StopCancelled", victim.Reason())
	}

	// Resume: fresh learner and fresh simulated oracle (same seed), last
	// checkpoint plus WAL replay.
	sn, err := ReadSnapshot(&lastSnap)
	if err != nil {
		t.Fatal(err)
	}
	wal2, records, err := resilience.OpenLabelWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	if len(records) != 63 {
		t.Fatalf("WAL holds %d records, want the 63 answers acknowledged before the kill", len(records))
	}
	answersAt := len(sn.Labeled)
	if sn.Ledger != nil {
		answersAt = sn.Ledger.Answers
	}
	if len(records) <= answersAt {
		t.Fatalf("kill landed on an iteration boundary (%d WAL records, %d checkpointed answers); "+
			"the test needs post-checkpoint answers to exercise WAL replay", len(records), answersAt)
	}
	resSim := simPoolOracle(pool, simCfg, simSeed)
	resumed, err := resume(pool, linear.NewSVM(41), Margin{}, resSim, sn, records)
	if err != nil {
		t.Fatal(err)
	}
	resumed.SetLabelSink(wal2)
	resRes, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	curvesEqual(t, refRes.Curve, resRes.Curve)
	drawsEqual(t, ref, resumed)
	if refRes.LabelsUsed != resRes.LabelsUsed {
		t.Errorf("LabelsUsed differ: %d vs %d", refRes.LabelsUsed, resRes.LabelsUsed)
	}
	if resumed.Reason() != ref.Reason() {
		t.Errorf("reasons differ: %v vs %v", resumed.Reason(), ref.Reason())
	}
	// The ledger replays exactly: same answers, same split, same dollars.
	resLedger := resumed.Ledger()
	if resLedger.Answers != refLedger.Answers || resLedger.Labels != refLedger.Labels ||
		resLedger.Abstains != refLedger.Abstains {
		t.Errorf("ledger counts differ: %+v vs %+v", resLedger, refLedger)
	}
	if math.Abs(resLedger.Spent-refLedger.Spent) > budgetEps {
		t.Errorf("ledger spend differs: %.9f vs %.9f", resLedger.Spent, refLedger.Spent)
	}
	// Not one answer re-bought: the resumed oracle only paid for answers
	// the WAL did not already hold.
	if got, want := resSim.Queries(), refSim.Queries()-len(records); got != want {
		t.Errorf("resumed process paid %d oracle queries, want %d (WAL answers must not be re-bought)",
			got, want)
	}
	// The final WAL is the full run, contiguous, and its recorded costs
	// sum to exactly the ledger's spend — every charge durable, none
	// double-journaled.
	_, finalRecords, err := resilience.OpenLabelWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(finalRecords) != refLedger.Answers {
		t.Errorf("final WAL holds %d records, want %d (one per acknowledged answer)",
			len(finalRecords), refLedger.Answers)
	}
	var walSpent float64
	labels, abstains := 0, 0
	for _, rec := range finalRecords {
		walSpent += rec.Cost
		if rec.Abstained() {
			abstains++
		} else {
			labels++
		}
	}
	if labels != refLedger.Labels || abstains != refLedger.Abstains {
		t.Errorf("WAL verdict split %d/%d, want %d/%d", labels, abstains, refLedger.Labels, refLedger.Abstains)
	}
	if math.Abs(walSpent-refLedger.Spent) > budgetEps {
		t.Errorf("WAL costs sum to %.9f, ledger says %.9f (double charge or dropped answer)",
			walSpent, refLedger.Spent)
	}
}

// TestChaosBatchAllFailTerminates pins the no-spin guarantee on the
// batched path: a batch labeler whose every answer fails must end the
// run with StopOracleFailed wrapping ErrLabelingStalled.
func TestChaosBatchAllFailTerminates(t *testing.T) {
	pool := syntheticPool(200, 42)
	sim := simPoolOracle(pool, oracle.LLMSimConfig{FailRate: 1.0}, 3)
	s, err := NewBatchSession(pool, linear.NewSVM(42), Margin{}, sim, Config{Seed: 42, MaxLabels: 50})
	if err != nil {
		t.Fatal(err)
	}
	faults := 0
	s.AddObserver(ObserverFunc(func(e Event) {
		if _, ok := e.(OracleFault); ok {
			faults++
		}
	}))
	_, runErr := s.Run(context.Background())
	if runErr == nil {
		t.Fatal("run with an all-failing labeler reported no error")
	}
	if s.Reason() != StopOracleFailed {
		t.Errorf("reason = %v, want StopOracleFailed", s.Reason())
	}
	if faults == 0 {
		t.Error("no OracleFault events observed")
	}
	if sim.Queries() != 0 {
		t.Errorf("failed answers were billed: %d queries acknowledged", sim.Queries())
	}
}

// TestRestoreRejectsForeignWAL feeds Resume label WALs
// that do not belong to the snapshot: one whose first record names
// another pair, one that journals labels where the checkpointed run
// billed abstentions, so it holds more labels at or below the
// snapshot's answer cursor than the snapshot does, and two whose billed
// abstention names a pair outside the pool. Each must be refused with
// an error naming what is wrong, not replayed and not a panic.
func TestRestoreRejectsForeignWAL(t *testing.T) {
	pool := syntheticPool(300, 44)
	simCfg := oracle.LLMSimConfig{AbstainRate: 0.5, Price: oracle.PriceTable{PerLabel: 0.002, PerAbstain: 0.001}}
	s, err := NewBatchSession(pool, linear.NewSVM(44), Margin{}, simPoolOracle(pool, simCfg, 5), Config{Seed: 44, MaxLabels: 80})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	sn := s.Snapshot()
	if sn.Ledger == nil || sn.Ledger.Abstains == 0 {
		t.Fatalf("snapshot ledger %+v, want billed abstentions", sn.Ledger)
	}

	wrongPair := []resilience.LabelRecord{{Seq: 1, Index: sn.Labeled[0] + 1, Label: sn.Labels[0]}}
	var allLabels []resilience.LabelRecord
	for seq := 1; seq <= sn.Ledger.Answers; seq++ {
		j := min(seq, len(sn.Labeled)) - 1
		allLabels = append(allLabels, resilience.LabelRecord{Seq: seq, Index: sn.Labeled[j], Label: sn.Labels[j]})
	}
	// A billed abstention at or below the answer cursor realigns the
	// simulated LLM's per-pair attempts, so its index must name a pool pair.
	abstainAt := func(index int) []resilience.LabelRecord {
		return []resilience.LabelRecord{{Seq: 1, Index: index, Verdict: "abstain", Cost: simCfg.Price.PerAbstain}}
	}
	for name, tc := range map[string]struct {
		wal  []resilience.LabelRecord
		want string
	}{
		"wrong pair":             {wrongPair, "disagrees with snapshot"},
		"labels for abstentions": {allLabels, "disagrees with snapshot"},
		"abstention past pool":   {abstainAt(pool.Len()), "WAL record 1 names pair 300 outside the pool"},
		"abstention below pool":  {abstainAt(-1), "WAL record 1 names pair -1 outside the pool"},
	} {
		_, err := resume(pool, linear.NewSVM(44), Margin{}, simPoolOracle(pool, simCfg, 5), sn, tc.wal)
		if !errors.Is(err, ErrInvalidSnapshot) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want ErrInvalidSnapshot containing %q", name, err, tc.want)
		}
	}
}
