package feature

import (
	"context"
	"math"
	"testing"
	"unicode/utf8"

	"github.com/alem/alem/internal/blocking"
	"github.com/alem/alem/internal/dataset"
)

// profilePool builds a reduced-scale generated pool: the profile's
// dataset blocked by the candidate index, as core.NewPool builds it.
func profilePool(tb testing.TB, name string, scale float64) (*dataset.Dataset, []dataset.PairKey) {
	tb.Helper()
	d, err := dataset.Load(name, scale, 7)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := blocking.Generate(context.Background(), blocking.NewCandidateIndex(d, blocking.IndexOptions{}))
	if err != nil {
		tb.Fatal(err)
	}
	return d, res.Pairs
}

// TestExtractPairsMatchesExtractProfiles pins the batched path — the
// fused character kernels over runes decoded once per value — to
// per-pair Extract on generated pools of five profiles at worker counts
// {1, 2, 8}. Unlike equivDataset's short values, these pools carry
// titles and descriptions past one 64-rune word, so the multi-word
// bit-vector paths run.
func TestExtractPairsMatchesExtractProfiles(t *testing.T) {
	long := 0
	for _, name := range []string{"dblp-scholar", "abt-buy", "beer", "baby-products", "amazon-bestbuy"} {
		d, pairs := profilePool(t, name, 0.03)
		if len(pairs) > 400 {
			pairs = pairs[:400]
		}
		for _, r := range d.Left.Rows {
			for _, v := range r.Values {
				if utf8.RuneCountInString(v) > 64 {
					long++
				}
			}
		}
		e := NewExtractor(d.Left.Schema)
		want := make([]Vector, len(pairs))
		for i, p := range pairs {
			want[i] = e.Extract(d.Left.Rows[p.L], d.Right.Rows[p.R])
		}
		for _, workers := range []int{1, 2, 8} {
			got := e.ExtractPairsWorkers(d, pairs, workers)
			for i := range want {
				for j := range want[i] {
					if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
						t.Fatalf("%s workers=%d pair %d dim %d (%s): batched=%v Extract=%v",
							name, workers, i, j, e.DimName(j), got[i][j], want[i][j])
					}
				}
			}
		}
	}
	if long == 0 {
		t.Fatal("no value longer than 64 runes: the multi-word kernels went untested")
	}
}

// BenchmarkExtractPairs times the batched featurization that pool
// construction and the serving match route run, on a reduced-scale
// dblp-scholar pool (titles ≈70 runes), serially.
func BenchmarkExtractPairs(b *testing.B) {
	d, pairs := profilePool(b, "dblp-scholar", 0.05)
	e := NewExtractor(d.Left.Schema)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ExtractPairsWorkers(d, pairs, 1)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pairs)), "ns/pair")
}
