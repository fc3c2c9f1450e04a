package core

import (
	"context"
	"math/rand"
	"testing"
)

// Serial/parallel pairs for every selection hot path ported onto the
// parallelFor substrate. The "serial" variant pins Workers=1 (the exact
// pre-port code path); "parallel" uses Workers=0, i.e. GOMAXPROCS, so
// the recorded speedup reflects the machine the benchmark ran on —
// scripts/bench_json.sh pairs them up and emits the ratio into
// BENCH_<n>.json together with the GOMAXPROCS it observed.

const benchPoolSize = 4096

func benchSetup(b *testing.B) *selectorSetup {
	b.Helper()
	return newSelectorSetup(b, benchPoolSize, 7)
}

func benchSelect(b *testing.B, sel Selector, learner Learner, workers int) {
	b.Helper()
	st := benchSetup(b)
	src := rand.NewSource(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sctx := &SelectContext{
			Ctx:     context.Background(),
			Learner: learner, Pool: st.pool,
			LabeledIdx: st.labeled, Labels: st.labels,
			Unlabeled: st.unlabel, Rand: rand.New(src),
			Workers: workers,
		}
		if batch := sel.Select(sctx, 10); len(batch) == 0 {
			b.Fatal("empty batch")
		}
	}
}

// QBC committee training + vote-variance scoring — the tentpole's
// headline path (committee members train concurrently on pre-drawn
// bootstrap resamples).
func BenchmarkQBCSelect(b *testing.B) {
	sel := QBC{B: 10, Factory: svmFactory}
	st := benchSetup(b)
	b.Run("serial", func(b *testing.B) { benchSelect(b, sel, st.svm, 1) })
	b.Run("parallel", func(b *testing.B) { benchSelect(b, sel, st.svm, 0) })
}

// Margin scoring sweep over the unlabeled pool.
func BenchmarkMarginSelect(b *testing.B) {
	st := benchSetup(b)
	b.Run("serial", func(b *testing.B) { benchSelect(b, Margin{}, st.svm, 1) })
	b.Run("parallel", func(b *testing.B) { benchSelect(b, Margin{}, st.svm, 0) })
}

// Blocked margin: same sweep with the §5.1 dimension cutoff inline.
func BenchmarkBlockedMarginSelect(b *testing.B) {
	sel := BlockedMargin{TopK: 3}
	st := benchSetup(b)
	b.Run("serial", func(b *testing.B) { benchSelect(b, sel, st.svm, 1) })
	b.Run("parallel", func(b *testing.B) { benchSelect(b, sel, st.svm, 0) })
}

// ForestQBC: per-tree vote variance over the unlabeled pool.
func BenchmarkForestQBCSelect(b *testing.B) {
	st := benchSetup(b)
	b.Run("serial", func(b *testing.B) { benchSelect(b, ForestQBC{}, st.forest, 1) })
	b.Run("parallel", func(b *testing.B) { benchSelect(b, ForestQBC{}, st.forest, 0) })
}

// Greedy k-center picking over margin scores: k distance-update sweeps
// across the candidate set ride the substrate, one per pick.
func BenchmarkKCenterMarginSelect(b *testing.B) {
	sel := ComposedSelector{ID: "kcenter-margin", Scorer: MarginScorer{}, Picker: KCenterPicker{}}
	st := benchSetup(b)
	b.Run("serial", func(b *testing.B) { benchSelect(b, sel, st.svm, 1) })
	b.Run("parallel", func(b *testing.B) { benchSelect(b, sel, st.svm, 0) })
}

// Score-weighted cluster sampling over margin scores: the margin sweep
// parallelizes; the O((PoolMult·k)²) pairwise clustering and the serial
// RNG draws are the fixed cost the ratio exposes.
func BenchmarkClusterMarginSelect(b *testing.B) {
	sel := ComposedSelector{ID: "cluster-margin", Scorer: MarginScorer{}, Picker: ScoredClusterPicker{}}
	st := benchSetup(b)
	b.Run("serial", func(b *testing.B) { benchSelect(b, sel, st.svm, 1) })
	b.Run("parallel", func(b *testing.B) { benchSelect(b, sel, st.svm, 0) })
}

// Pooled prediction, the evaluation-phase hot path that predated the
// substrate and now rides on it.
func BenchmarkParallelPredict(b *testing.B) {
	st := benchSetup(b)
	idx := make([]int, benchPoolSize)
	for i := range idx {
		idx[i] = i
	}
	run := func(b *testing.B, workers int) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := parallelPredict(context.Background(), st.pool, idx, workers, st.svm); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, 1) })
	b.Run("parallel", func(b *testing.B) { run(b, 0) })
}
