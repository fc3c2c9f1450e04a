// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§6). Each benchmark runs the corresponding experiment
// driver and, once per process, prints the reproduced rows/series so
// that `go test -bench . | tee bench_output.txt` captures the full
// reproduction next to the timing numbers.
//
// Experiment size is controlled by the ALEM_SCALE / ALEM_MAXLABELS /
// ALEM_RUNS / ALEM_SEED environment variables (see EXPERIMENTS.md);
// defaults keep the whole suite laptop-runnable. Micro-benchmarks for
// the substrates (similarity functions, blocking, learner training)
// follow the experiment benchmarks.
package alem_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"

	"github.com/alem/alem"
)

var printOnce sync.Map // experiment id -> *sync.Once

func runExperimentBench(b *testing.B, id string) {
	b.Helper()
	opts := alem.DefaultExperimentOptions()
	for i := 0; i < b.N; i++ {
		rep, err := alem.RunExperiment(id, opts, nil)
		if err != nil {
			b.Fatal(err)
		}
		onceAny, _ := printOnce.LoadOrStore(id, &sync.Once{})
		onceAny.(*sync.Once).Do(func() {
			fmt.Println()
			rep.WriteTo(os.Stdout, opts.Verbose)
		})
	}
}

// Table 1: dataset details (paper vs generated).
func BenchmarkTable1(b *testing.B) { runExperimentBench(b, "table1") }

// Fig. 8: QBC vs margin per classifier, Abt-Buy.
func BenchmarkFigure8(b *testing.B) { runExperimentBench(b, "fig8") }

// Fig. 9: QBC vs margin per classifier, Cora.
func BenchmarkFigure9(b *testing.B) { runExperimentBench(b, "fig9") }

// Fig. 10: example-selection latency breakdown, Cora.
func BenchmarkFigure10(b *testing.B) { runExperimentBench(b, "fig10") }

// Fig. 11: blocking dimensions and active ensembles on SVMs.
func BenchmarkFigure11(b *testing.B) { runExperimentBench(b, "fig11") }

// Fig. 12: best selector per classifier, progressive F1.
func BenchmarkFigure12(b *testing.B) { runExperimentBench(b, "fig12") }

// Fig. 13: best selector per classifier, user wait time.
func BenchmarkFigure13(b *testing.B) { runExperimentBench(b, "fig13") }

// Table 2: best progressive F1 + #labels vs the paper's numbers.
func BenchmarkTable2(b *testing.B) { runExperimentBench(b, "table2") }

// Fig. 14: noisy Oracles on Abt-Buy.
func BenchmarkFigure14(b *testing.B) { runExperimentBench(b, "fig14") }

// Fig. 15: noisy Oracles on the Magellan/DeepMatcher datasets.
func BenchmarkFigure15(b *testing.B) { runExperimentBench(b, "fig15") }

// Fig. 16: active vs supervised vs DeepMatcher proxy.
func BenchmarkFigure16(b *testing.B) { runExperimentBench(b, "fig16") }

// Fig. 17: active vs supervised trees under noise.
func BenchmarkFigure17(b *testing.B) { runExperimentBench(b, "fig17") }

// Fig. 18: interpretability — DNF atoms and tree depth.
func BenchmarkFigure18(b *testing.B) { runExperimentBench(b, "fig18") }

// Fig. 19: rules on the social-media dataset.
func BenchmarkFigure19(b *testing.B) { runExperimentBench(b, "fig19") }

// ---- substrate micro-benchmarks ----

func BenchmarkSimilarityMetrics(b *testing.B) {
	a := "sonixx wireless bluetooth speaker portable"
	c := "sonix wirelss speaker bluetooth portable edition"
	for _, m := range alem.SimilarityMetrics() {
		b.Run(m.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.Compare(a, c)
			}
		})
	}
}

func BenchmarkBlocking(b *testing.B) {
	d, err := alem.LoadDataset("abt-buy", 0.25, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := alem.NewCandidateIndex(d, alem.CandidateIndexOptions{})
		if _, err := alem.GenerateCandidates(context.Background(), idx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFeatureExtraction(b *testing.B) {
	d, err := alem.LoadDataset("abt-buy", 0.1, 1)
	if err != nil {
		b.Fatal(err)
	}
	res, err := alem.GenerateCandidates(context.Background(),
		alem.NewCandidateIndex(d, alem.CandidateIndexOptions{}))
	if err != nil {
		b.Fatal(err)
	}
	ext := alem.NewFeatureExtractor(d.Left.Schema)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := res.Pairs[i%len(res.Pairs)]
		ext.Extract(d.Left.Rows[p.L], d.Right.Rows[p.R])
	}
}

func trainingData(n, dim int, seed int64) ([]alem.FeatureVector, []bool) {
	r := rand.New(rand.NewSource(seed))
	X := make([]alem.FeatureVector, 0, n)
	y := make([]bool, 0, n)
	for i := 0; i < n; i++ {
		pos := i%2 == 0
		base := 0.2
		if pos {
			base = 0.8
		}
		v := make(alem.FeatureVector, dim)
		for j := range v {
			v[j] = base + r.Float64()*0.2 - 0.1
		}
		X = append(X, v)
		y = append(y, pos)
	}
	return X, y
}

// BenchmarkSVMTrain fits the linear SVM (60 epochs) at the labeled-set
// sizes runs reach — 160 rows (a dollar-capped run on a small pool) and
// 500 (a 500-label budget) — at dblp-scholar's width, 84. Every tenth
// label is flipped so samples keep violating the margin and take the
// hinge update, as a run's boundary-heavy labeled set does; trainingData
// alone is separable, and almost every step would only shrink.
func BenchmarkSVMTrain(b *testing.B) {
	for _, n := range []int{160, 500} {
		X, y := trainingData(n, 84, 1)
		for i := 0; i < n; i += 10 {
			y[i] = !y[i]
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := alem.NewSVM(int64(i))
				s.Train(X, y)
			}
		})
	}
}

// BenchmarkForestTrain fits forest(20) at the labeled-set sizes runs
// reach: 160 rows (a dollar-capped run on a small pool), 500 (a
// 500-label budget) and 1000 (the serving set-up fit). Every tenth label
// is flipped: trainingData alone is separable on any feature, and the
// trees would be stumps rather than the deep trees a run's
// boundary-heavy labeled set grows.
func BenchmarkForestTrain(b *testing.B) {
	for _, n := range []int{160, 500, 1000} {
		X, y := trainingData(n, 63, 2)
		for i := 0; i < n; i += 10 {
			y[i] = !y[i]
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f := alem.NewRandomForest(20, int64(i))
				f.Train(X, y)
			}
		})
	}
}

// BenchmarkNeuralNetTrain fits the paper's network (hidden width 16, 50
// epochs, mini-batch 8) on 160 rows, the labeled-set size a
// dollar-capped run on a small pool reaches, at the feature widths of
// the generated pools: 84 (amazon-bestbuy) and 294 (baby-products).
func BenchmarkNeuralNetTrain(b *testing.B) {
	for _, dim := range []int{84, 294} {
		X, y := trainingData(160, dim, 3)
		b.Run(fmt.Sprintf("n=160/dim=%d", dim), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				n := alem.NewNeuralNet(16, int64(i))
				n.Train(X, y)
			}
		})
	}
}

// BenchmarkNeuralNetMargin sweeps Margin over a 500-row pool, one op per
// sweep: the work of one evaluate or margin-score pass with the net.
func BenchmarkNeuralNetMargin(b *testing.B) {
	X, y := trainingData(500, 84, 6)
	n := alem.NewNeuralNet(16, 1)
	n.Train(X[:160], y[:160])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, x := range X {
			sinkMargin += n.Margin(x)
		}
	}
}

var sinkMargin float64

// BenchmarkForestPredict sweeps 4,096 rows through forest(20)'s
// DecisionValues in one call per op, in pool order: one evaluation sweep,
// whose vote fractions learner-aware QBC reads as well. The forest is fit
// on the first 500 rows with every tenth label flipped, so its trees grow
// as deep as a run's do (see BenchmarkForestTrain).
func BenchmarkForestPredict(b *testing.B) {
	X, y := trainingData(4096, 63, 4)
	for i := 0; i < 500; i += 10 {
		y[i] = !y[i]
	}
	f := alem.NewRandomForest(20, 1)
	f.Train(X[:500], y[:500])
	rows := make([]int, len(X))
	for i := range rows {
		rows[i] = i
	}
	out := make([]float64, len(rows))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.DecisionValues(X, rows, out)
	}
}

func BenchmarkMarginScoring(b *testing.B) {
	X, y := trainingData(2000, 63, 5)
	s := alem.NewSVM(1)
	s.Train(X[:200], y[:200])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Margin(X[i%len(X)])
	}
}

// BenchmarkSVMDecisionValues scores 4,096 rows of width 84 in one
// DecisionValues call per op, in pool order: the block sweep evaluation,
// margin scoring and each QBC committee member run over the pool.
func BenchmarkSVMDecisionValues(b *testing.B) {
	X, y := trainingData(4096, 84, 7)
	s := alem.NewSVM(1)
	s.Train(X[:200], y[:200])
	rows := make([]int, len(X))
	for i := range rows {
		rows[i] = i
	}
	out := make([]float64, len(rows))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.DecisionValues(X, rows, out)
	}
}

// BenchmarkSessionIteration measures one full train→evaluate→select→label
// step of the Session engine (SVM + margin, beer at paper scale) — the
// per-iteration overhead the engine adds over the monolithic loop is what
// this guards.
func BenchmarkSessionIteration(b *testing.B) {
	d, err := alem.LoadDataset("beer", 1.0, 1)
	if err != nil {
		b.Fatal(err)
	}
	pool := alem.NewPool(d)
	o := alem.NewPerfectOracle(d)
	newSession := func() *alem.Session {
		s, err := alem.NewSession(pool, alem.NewSVM(1), alem.MarginSelector{}, o,
			alem.Config{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	s := newSession()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done, err := s.Step(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if done {
			b.StopTimer()
			s = newSession()
			b.StartTimer()
		}
	}
}

// ---- ablation benchmarks (design-choice sweeps, see DESIGN.md) ----

func BenchmarkAblationCommittee(b *testing.B) { runExperimentBench(b, "ablation-committee") }
func BenchmarkAblationBatch(b *testing.B)     { runExperimentBench(b, "ablation-batch") }
func BenchmarkAblationSeedSet(b *testing.B)   { runExperimentBench(b, "ablation-seedset") }
func BenchmarkAblationTau(b *testing.B)       { runExperimentBench(b, "ablation-tau") }
func BenchmarkAblationBlockDims(b *testing.B) { runExperimentBench(b, "ablation-blockdims") }
func BenchmarkAblationTrees(b *testing.B)     { runExperimentBench(b, "ablation-trees") }
func BenchmarkAblationPlugin(b *testing.B)    { runExperimentBench(b, "ablation-plugin") }
func BenchmarkAblationIWAL(b *testing.B)      { runExperimentBench(b, "ablation-iwal") }
func BenchmarkAblationFeatures(b *testing.B)  { runExperimentBench(b, "ablation-features") }
func BenchmarkAblationTreeBlock(b *testing.B) { runExperimentBench(b, "ablation-treeblock") }
func BenchmarkAblationMajority(b *testing.B)  { runExperimentBench(b, "ablation-majority") }

// Fig. 2: the learner/selector compatibility grid.
func BenchmarkFigure2(b *testing.B)             { runExperimentBench(b, "fig2") }
func BenchmarkAblationClassWeight(b *testing.B) { runExperimentBench(b, "ablation-classweight") }
func BenchmarkAblationNNEnsemble(b *testing.B)  { runExperimentBench(b, "ablation-nnensemble") }

// Summary: the paper's four questions in one table.
func BenchmarkSummary(b *testing.B)           { runExperimentBench(b, "summary") }
func BenchmarkAblationStability(b *testing.B) { runExperimentBench(b, "ablation-stability") }
