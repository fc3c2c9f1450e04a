package match

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/alem/alem/internal/dataset"
	"github.com/alem/alem/internal/feature"
)

// scoreDataset builds the deployment-shaped workload the scoring
// benchmarks run: two tables whose records repeat across many candidate
// pairs, which is exactly the shape the interned batch path amortizes.
func scoreDataset(rows int) (*dataset.Dataset, []dataset.PairKey) {
	schema := []string{"name", "maker", "price"}
	rng := rand.New(rand.NewSource(17))
	words := []string{
		"samsung", "galaxy", "s21", "ultra", "128gb", "phone", "pro", "max",
		"apple", "iphone", "mini", "noir", "schwarz", "black", "5g", "case",
	}
	val := func() string {
		n := 1 + rng.Intn(5)
		s := ""
		for i := 0; i < n; i++ {
			if i > 0 {
				s += " "
			}
			s += words[rng.Intn(len(words))]
		}
		return s
	}
	mk := func(name string, n int) *dataset.Table {
		t := &dataset.Table{Name: name, Schema: schema}
		for i := 0; i < n; i++ {
			t.Rows = append(t.Rows, dataset.Record{
				ID:     fmt.Sprintf("%s-%d", name, i),
				Values: []string{val(), val(), fmt.Sprintf("%d.99", rng.Intn(500))},
			})
		}
		return t
	}
	left := mk("L", rows)
	right := mk("R", rows)
	d := dataset.NewDataset("score", left, right, nil, 0.2)
	var pairs []dataset.PairKey
	for l := 0; l < rows; l++ {
		for r := 0; r < rows; r += 1 + rng.Intn(3) {
			pairs = append(pairs, dataset.PairKey{L: l, R: r})
		}
	}
	return d, pairs
}

// probeLearner is a fixed linear scorer: cheap, deterministic, and
// allocation-free, so the benchmarks and ratchets below measure the
// featurization pipeline rather than any particular model.
type probeLearner struct{ dim int }

func (p *probeLearner) Name() string { return "probe" }

func (p *probeLearner) Train([]feature.Vector, []bool) {}

func (p *probeLearner) Predict(x feature.Vector) bool { return p.Prob(x) >= 0.5 }

func (p *probeLearner) PredictAll(X []feature.Vector) []bool {
	out := make([]bool, len(X))
	for i, x := range X {
		out[i] = p.Predict(x)
	}
	return out
}

func (p *probeLearner) Prob(x feature.Vector) float64 {
	s := 0.0
	for i, v := range x {
		if i%2 == 0 {
			s += v
		} else {
			s -= 0.5 * v
		}
	}
	return 1 / (1 + math.Exp(-s/float64(len(x)+1)))
}

// scoreAllString is the frozen pre-interning scoring path: featurize each
// candidate pair independently with the per-pair string extractor, then
// score. The benchmarks and the allocation-reduction ratchet hold the
// interned path against it.
func scoreAllString(ctx context.Context, e *feature.Extractor, l *probeLearner, d *dataset.Dataset, pairs []dataset.PairKey) ([]float64, error) {
	out := make([]float64, len(pairs))
	for i, p := range pairs {
		if i%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		out[i] = Score(l, e.Extract(d.Left.Rows[p.L], d.Right.Rows[p.R]))
	}
	return out, nil
}

func scoreAllInterned(ctx context.Context, e *feature.Extractor, l *probeLearner, d *dataset.Dataset, pairs []dataset.PairKey, workers int) ([]float64, error) {
	X := e.ExtractPairsWorkers(d, pairs, workers)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return ScoreAll(ctx, l, X)
}

// BenchmarkMatcherScoreAll compares the matcher's featurize-and-score
// hot path before and after the interning campaign: /string featurizes
// every candidate pair from scratch; /interned tokenizes each touched
// record once, shares the interned token sets across all 21 metrics and
// backs all vectors with one flat array. bench_json.sh pairs the two
// variants into the "alloc_reductions" section and fails the run if the
// allocs/op reduction falls under 30%.
func BenchmarkMatcherScoreAll(b *testing.B) {
	d, pairs := scoreDataset(60)
	e := feature.NewExtractor(d.Left.Schema)
	l := &probeLearner{dim: e.Dim()}
	ctx := context.Background()
	b.Run("string", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := scoreAllString(ctx, e, l, d, pairs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("interned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := scoreAllInterned(ctx, e, l, d, pairs, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestScoreAllInternedMatchesString pins the interned scoring path
// bit-identical to the frozen per-pair string path at worker counts
// {1, 2, 8} — the end-to-end equivalence gate for the zero-alloc
// campaign at the match layer.
func TestScoreAllInternedMatchesString(t *testing.T) {
	d, pairs := scoreDataset(30)
	e := feature.NewExtractor(d.Left.Schema)
	l := &probeLearner{dim: e.Dim()}
	ctx := context.Background()
	want, err := scoreAllString(ctx, e, l, d, pairs)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		got, err := scoreAllInterned(ctx, e, l, d, pairs, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d scores, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("workers=%d pair %d: interned=%v string=%v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestScoreAllAllocReduction enforces the campaign's acceptance bar
// under plain `go test`: the interned featurize-and-score path must
// allocate at least 30% less per scored pair than the string path (in
// practice the reduction is far larger), and must stay under a fixed
// absolute budget so the bar cannot be met by regressing both paths.
func TestScoreAllAllocReduction(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation behaviour differs under the race detector")
	}
	d, pairs := scoreDataset(40)
	e := feature.NewExtractor(d.Left.Schema)
	l := &probeLearner{dim: e.Dim()}
	ctx := context.Background()
	// Warm the extractor's dictionary and the scratch pools.
	if _, err := scoreAllInterned(ctx, e, l, d, pairs, 1); err != nil {
		t.Fatal(err)
	}
	stringAllocs := testing.AllocsPerRun(5, func() {
		if _, err := scoreAllString(ctx, e, l, d, pairs); err != nil {
			t.Fatal(err)
		}
	})
	internedAllocs := testing.AllocsPerRun(5, func() {
		if _, err := scoreAllInterned(ctx, e, l, d, pairs, 1); err != nil {
			t.Fatal(err)
		}
	})
	reduction := 1 - internedAllocs/stringAllocs
	t.Logf("allocs per run: string=%.0f interned=%.0f reduction=%.1f%%",
		stringAllocs, internedAllocs, 100*reduction)
	if reduction < 0.30 {
		t.Fatalf("interned path reduces allocs by only %.1f%% (string=%.0f interned=%.0f), ratchet floor 30%%",
			100*reduction, stringAllocs, internedAllocs)
	}
	if perPair := internedAllocs / float64(len(pairs)); perPair > 4.0 {
		t.Fatalf("interned path allocates %.2f per pair, ratchet budget 4.0", perPair)
	}
}
