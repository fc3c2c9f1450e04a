package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/alem/alem/internal/eval"
	"github.com/alem/alem/internal/linear"
	"github.com/alem/alem/internal/tree"
)

// ---- the fan-out substrate itself ----

func TestParallelForMatchesSerial(t *testing.T) {
	for _, n := range []int{0, 1, parallelCutoff - 1, parallelCutoff, 3*parallelCutoff + 17} {
		for _, workers := range []int{0, 1, 2, 7} {
			out := make([]int, n)
			if err := parallelFor(context.Background(), n, workers, parallelCutoff, func(j int) {
				out[j] = j * j
			}); err != nil {
				t.Fatal(err)
			}
			for j := range out {
				if out[j] != j*j {
					t.Fatalf("n=%d workers=%d: out[%d] = %d", n, workers, j, out[j])
				}
			}
		}
	}
}

// TestParallelForRows pins parallelForRows' contract, for shuffled
// candidates (counting sort) and ascending ones (swept as they are):
// every candidate slot lands in exactly one block, duplicate rows
// included; a block holds at most cancelCheckStride slots with rows[k] =
// cands[slots[k]]; and a serial sweep visits the slots in ascending pool
// row, ties in ascending slot, in full blocks but the last.
func TestParallelForRows(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const poolLen = 3*parallelCutoff + 17
	shuffled := rng.Perm(poolLen)[:2*parallelCutoff]
	dups := make([]int, 0, len(shuffled)+40)
	dups = append(dups, shuffled...)
	for i := 0; i < 40; i++ {
		dups = append(dups, shuffled[rng.Intn(len(shuffled))])
	}
	rng.Shuffle(len(dups), func(a, b int) { dups[a], dups[b] = dups[b], dups[a] })
	ascending := slices.Clone(dups)
	slices.Sort(ascending)
	cases := map[string][]int{
		"empty":      nil,
		"one":        {poolLen - 1},
		"shuffled":   shuffled,
		"duplicates": dups,
		"ascending":  ascending,
		"all-same":   {4, 4, 4, 4},
	}
	for name, cands := range cases {
		for _, workers := range []int{1, 2, 7} {
			var mu sync.Mutex
			runs := make([]int, len(cands))
			var visited, blockLens []int
			if err := parallelForRows(context.Background(), poolLen, cands, workers, func(slots, rows []int) {
				mu.Lock()
				defer mu.Unlock()
				if len(slots) == 0 || len(slots) > cancelCheckStride || len(rows) != len(slots) {
					t.Errorf("%s workers=%d: block of %d slots and %d rows", name, workers, len(slots), len(rows))
				}
				for k, j := range slots {
					if rows[k] != cands[j] {
						t.Errorf("%s workers=%d: rows[%d] = %d, want cands[%d] = %d", name, workers, k, rows[k], j, cands[j])
					}
					runs[j]++
				}
				visited = append(visited, slots...)
				blockLens = append(blockLens, len(slots))
			}); err != nil {
				t.Fatal(err)
			}
			for j, r := range runs {
				if r != 1 {
					t.Fatalf("%s workers=%d: slot %d ran %d times, want 1", name, workers, j, r)
				}
			}
			if workers != 1 {
				continue
			}
			for i := 1; i < len(visited); i++ {
				a, b := visited[i-1], visited[i]
				if cands[a] > cands[b] || (cands[a] == cands[b] && a > b) {
					t.Fatalf("%s: slot %d (row %d) visited before slot %d (row %d)", name, a, cands[a], b, cands[b])
				}
			}
			for i, n := range blockLens[:max(len(blockLens)-1, 0)] {
				if n != cancelCheckStride {
					t.Fatalf("%s: serial block %d holds %d slots, want %d", name, i, n, cancelCheckStride)
				}
			}
		}
	}
}

func TestParallelForCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := parallelFor(ctx, 10*parallelCutoff, 4, parallelCutoff, func(j int) { ran.Add(1) })
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Every worker stops within one cancellation stride.
	if got := ran.Load(); got > 4*cancelCheckStride {
		t.Errorf("%d items ran after cancellation, want <= %d", got, 4*cancelCheckStride)
	}
}

// ---- serial-vs-parallel selector equivalence ----

// selectorSetup trains the learners once per pool size and hands each
// subtest a fresh SelectContext factory whose RNG draw counts are
// observable.
type selectorSetup struct {
	pool    *Pool
	labeled []int
	labels  []bool
	unlabel []int
	svm     *linear.SVM
	forest  *tree.Forest
}

// newSelectorSetup labels the first 60 rows and lists the rest as
// Unlabeled in a seeded shuffled order, as every session does, so the
// selector pins see candidates out of pool order.
func newSelectorSetup(tb testing.TB, poolSize int, seed int64) *selectorSetup {
	tb.Helper()
	pool := syntheticPool(poolSize, seed)
	nLab := 60
	st := &selectorSetup{pool: pool}
	for i := 0; i < nLab; i++ {
		st.labeled = append(st.labeled, i)
		st.labels = append(st.labels, pool.Truth[i])
	}
	for i := nLab; i < poolSize; i++ {
		st.unlabel = append(st.unlabel, i)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(st.unlabel), func(a, b int) {
		st.unlabel[a], st.unlabel[b] = st.unlabel[b], st.unlabel[a]
	})
	trainX, trainY := gatherTraining(pool, st.labeled, st.labels, nLab)
	st.svm = linear.NewSVM(seed)
	st.svm.Train(trainX, trainY)
	st.forest = tree.NewForest(9, seed)
	st.forest.Train(trainX, trainY)
	return st
}

// run executes sel once with the given worker count over a fresh
// counted RNG and returns the batch plus the draw counters.
func (st *selectorSetup) run(sel Selector, learner Learner, workers, k int, seed int64) ([]int, uint64, uint64) {
	return st.runWith(sel, learner, poolValues{}, workers, k, seed)
}

// runWith is run with the context carrying values, as a Progressive
// session's selectPhase hands over its evaluation's values.
func (st *selectorSetup) runWith(sel Selector, learner Learner, values poolValues, workers, k int, seed int64) ([]int, uint64, uint64) {
	src := newCountingSource(seed)
	sctx := &SelectContext{
		Ctx:     context.Background(),
		Learner: learner, Pool: st.pool,
		LabeledIdx: st.labeled, Labels: st.labels,
		Unlabeled: st.unlabel, Rand: rand.New(src),
		Workers: workers,
		values:  values,
	}
	batch := sel.Select(sctx, k)
	return batch, src.n63, src.n64
}

// valuesOf computes dl's decision value of every pool row the way a
// Progressive session's evaluation does.
func (st *selectorSetup) valuesOf(t testing.TB, dl DecisionLearner) poolValues {
	t.Helper()
	all := make([]int, st.pool.Len())
	for i := range all {
		all[i] = i
	}
	vals, _, err := parallelDecide(context.Background(), st.pool, all, 1, dl)
	if err != nil {
		t.Fatal(err)
	}
	return poolValues{learner: dl, vals: vals}
}

// TestSelectorsSerialParallelEquivalent pins the tentpole invariant: for
// every ported selector, every worker count produces the identical batch
// AND the identical counted-RNG position, at pool sizes on both sides of
// the parallel cutoff. This is what keeps Snapshot/Restore bit-identity
// independent of the machine's CPU count.
func TestSelectorsSerialParallelEquivalent(t *testing.T) {
	for _, size := range []int{parallelCutoff / 2, 3*parallelCutoff + 41} {
		st := newSelectorSetup(t, size+60, int64(size))
		cases := []struct {
			name    string
			sel     Selector
			learner Learner
		}{
			{"qbc", QBC{B: 7, Factory: svmFactory}, st.svm},
			{"qbc-entropy", QBC{B: 5, Factory: svmFactory, UseEntropy: true}, st.svm},
			{"margin", Margin{}, st.svm},
			{"margin-blocked", BlockedMargin{TopK: 3}, st.svm},
			{"forest-qbc", ForestQBC{}, st.forest},
			{"forest-qbc-blocked", BlockedForestQBC{}, st.forest},
			{"iwal", IWAL{}, st.svm},
			{"random", Random{}, st.svm},
		}
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/size=%d", tc.name, size), func(t *testing.T) {
				refBatch, ref63, ref64 := st.run(tc.sel, tc.learner, 1, 10, 99)
				if len(refBatch) == 0 {
					t.Fatalf("serial %s selected nothing", tc.sel.Name())
				}
				for _, workers := range []int{0, 2, 3, 8} {
					batch, n63, n64 := st.run(tc.sel, tc.learner, workers, 10, 99)
					if n63 != ref63 || n64 != ref64 {
						t.Fatalf("workers=%d: RNG draws (%d,%d) differ from serial (%d,%d)",
							workers, n63, n64, ref63, ref64)
					}
					if len(batch) != len(refBatch) {
						t.Fatalf("workers=%d: batch size %d vs serial %d", workers, len(batch), len(refBatch))
					}
					for j := range batch {
						if batch[j] != refBatch[j] {
							t.Fatalf("workers=%d: batch[%d] = %d, serial picked %d",
								workers, j, batch[j], refBatch[j])
						}
					}
				}
			})
		}
	}
}

// TestSessionBitIdenticalAcrossWorkerCounts runs the same QBC session at
// several worker counts and requires identical curves, labeled sets and
// byte-identical snapshots — Workers is machine tuning, never protocol.
// Wall-clock latency fields in the curve are zeroed before encoding:
// they measure the machine, not the run, and differ even between two
// serial executions.
func TestSessionBitIdenticalAcrossWorkerCounts(t *testing.T) {
	pool := syntheticPool(900, 83)
	runAt := func(workers int) (*Result, []byte) {
		s, err := NewSession(pool, linear.NewSVM(83), QBC{B: 5, Factory: svmFactory},
			poolOracle(pool), Config{Seed: 83, MaxLabels: 90, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		sn := s.Snapshot()
		for i := range sn.Curve {
			sn.Curve[i].TrainTime = 0
			sn.Curve[i].CommitteeCreateTime = 0
			sn.Curve[i].ScoreTime = 0
		}
		var buf bytes.Buffer
		if err := sn.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return res, buf.Bytes()
	}
	refRes, refSnap := runAt(1)
	for _, workers := range []int{0, 2, 6} {
		res, snap := runAt(workers)
		curvesEqual(t, refRes.Curve, res.Curve)
		if res.LabelsUsed != refRes.LabelsUsed {
			t.Errorf("workers=%d: LabelsUsed %d vs %d", workers, res.LabelsUsed, refRes.LabelsUsed)
		}
		if !bytes.Equal(snap, refSnap) {
			t.Errorf("workers=%d: snapshot bytes differ from the serial run's", workers)
		}
	}
}

// TestSnapshotPortableAcrossWorkerCounts checkpoints a parallel run
// mid-flight and resumes it with the default worker count (as a
// different machine would): the stitched curve must equal the
// uninterrupted serial run's.
func TestSnapshotPortableAcrossWorkerCounts(t *testing.T) {
	pool := syntheticPool(800, 84)
	mkSession := func(workers int) *Session {
		s, err := NewSession(pool, linear.NewSVM(84), QBC{B: 5, Factory: svmFactory},
			poolOracle(pool), Config{Seed: 84, MaxLabels: 80, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	ref, err := mkSession(1).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	par := mkSession(6)
	for i := 0; i < 3; i++ {
		if done, err := par.Step(context.Background()); done || err != nil {
			t.Fatalf("parallel run finished early: done=%v err=%v", done, err)
		}
	}
	sn := par.Snapshot()
	restored, err := Restore(pool, linear.NewSVM(84), QBC{B: 5, Factory: svmFactory},
		poolOracle(pool), sn)
	if err != nil {
		t.Fatal(err)
	}
	res, err := restored.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	curvesEqual(t, ref.Curve, res.Curve)
	if res.LabelsUsed != ref.LabelsUsed {
		t.Errorf("resumed LabelsUsed %d vs uninterrupted %d", res.LabelsUsed, ref.LabelsUsed)
	}
}

// ---- cancel-vs-empty stop reason (regression) ----

// TestSelectPhaseDistinguishesCancelFromEmpty pins the selectPhase fix:
// a nil batch caused by a context cancelled mid-select must surface as
// StopCancelled, not be misreported as StopSelectorEmpty — before the
// fix a cancelled run could finish as a normal selector-exhausted stop.
func TestSelectPhaseDistinguishesCancelFromEmpty(t *testing.T) {
	pool := syntheticPool(500, 85)
	s, err := NewSession(pool, linear.NewSVM(85), Margin{}, poolOracle(pool),
		Config{Seed: 85, MaxLabels: 100})
	if err != nil {
		t.Fatal(err)
	}
	if done, err := s.Step(context.Background()); done || err != nil {
		t.Fatalf("first step: done=%v err=%v", done, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var pt eval.Point
	batch, reason := s.selectPhase(ctx, &pt)
	if len(batch) != 0 {
		t.Fatalf("cancelled selectPhase returned batch %v", batch)
	}
	if reason != StopCancelled {
		t.Fatalf("reason = %v, want StopCancelled (cancellation misreported as a normal stop)", reason)
	}
}

// cancellingSelector simulates SIGINT arriving while the selector is
// scoring: it cancels the run's own context mid-select and reports the
// nil batch the built-in selectors produce when Cancelled fires.
type cancellingSelector struct{ cancel context.CancelFunc }

func (cancellingSelector) Name() string { return "cancelling" }

func (c cancellingSelector) Select(ctx *SelectContext, k int) []int {
	c.cancel()
	return nil
}

func TestSessionCancelledMidSelectReportsStopCancelled(t *testing.T) {
	pool := syntheticPool(500, 86)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s, err := NewSession(pool, linear.NewSVM(86), cancellingSelector{cancel},
		poolOracle(pool), Config{Seed: 86, MaxLabels: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(ctx); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s.Reason() != StopCancelled {
		t.Fatalf("reason = %v, want StopCancelled", s.Reason())
	}
}

// TestSelectorsReturnNilOnPreCancelledContext covers the slow selectors'
// cancellation paths, including the LFP/LFN stride added for the
// rule learner (which previously ignored cancellation entirely).
func TestSelectorsReturnNilOnPreCancelledContext(t *testing.T) {
	st := newSelectorSetup(t, 700, 87)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name    string
		sel     Selector
		learner Learner
	}{
		{"qbc", QBC{B: 5, Factory: svmFactory}, st.svm},
		{"margin", Margin{}, st.svm},
		{"margin-blocked", BlockedMargin{TopK: 3}, st.svm},
		{"forest-qbc", ForestQBC{}, st.forest},
		{"iwal", IWAL{}, st.svm},
	} {
		sctx := &SelectContext{
			Ctx:     ctx,
			Learner: tc.learner, Pool: st.pool,
			LabeledIdx: st.labeled, Labels: st.labels,
			Unlabeled: st.unlabel, Rand: rand.New(rand.NewSource(1)),
		}
		if batch := tc.sel.Select(sctx, 10); batch != nil {
			t.Errorf("%s: cancelled select returned %v, want nil", tc.name, batch)
		}
	}
}
