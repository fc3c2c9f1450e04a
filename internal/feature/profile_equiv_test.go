package feature

import (
	"context"
	"fmt"
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
// {1, 2, 8}, and the Boolean extractor's 0/1 vectors, thresholded from
// the same pass, to its per-pair Extract. Unlike equivDataset's short
// values, these pools carry titles and descriptions past one 64-rune
// word, so the multi-word bit-vector paths run.
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
		e, be := NewExtractor(d.Left.Schema), NewBoolExtractor(d.Left.Schema)
		want, wantBool := make([]Vector, len(pairs)), make([]Vector, len(pairs))
		for i, p := range pairs {
			want[i] = e.Extract(d.Left.Rows[p.L], d.Right.Rows[p.R])
			wantBool[i] = make(Vector, be.Dim())
			for j, bit := range be.Extract(d.Left.Rows[p.L], d.Right.Rows[p.R]) {
				if bit {
					wantBool[i][j] = 1
				}
			}
		}
		atomName := func(j int) string { return be.Atom(j).String() }
		for _, workers := range []int{1, 2, 8} {
			label := fmt.Sprintf("%s workers=%d", name, workers)
			sameBits(t, label, e.ExtractPairsWorkers(d, pairs, workers), want, e.DimName)
			got, err := be.vectors(context.Background(), d, pairs, workers)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, label+" bool", got, wantBool, atomName)
		}
	}
	if long == 0 {
		t.Fatal("no value longer than 64 runes: the multi-word kernels went untested")
	}
}

// sameBits fails t at the first value of got whose bits differ from
// want's.
func sameBits(t *testing.T, label string, got, want []Vector, dimName func(int) string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d vectors, want %d", label, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s pair %d: dim %d, want %d", label, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("%s pair %d dim %d (%s): batched=%v Extract=%v",
					label, i, j, dimName(j), got[i][j], want[i][j])
			}
		}
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
