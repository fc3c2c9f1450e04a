package blocking

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/alem/alem/internal/dataset"
)

// fuzzTable splits text at newlines into at most 32 one-value records of
// at most 256 bytes each.
func fuzzTable(text, side string) *dataset.Table {
	tb := &dataset.Table{Name: side}
	for i, line := range strings.Split(text, "\n") {
		if i == 32 {
			break
		}
		tb.Rows = append(tb.Rows, dataset.Record{
			ID:     fmt.Sprintf("%s%d", side, i),
			Values: []string{line[:min(len(line), 256)]},
		})
	}
	return tb
}

// tableText joins a table's one-value records back into fuzz input.
func tableText(tb *dataset.Table) string {
	lines := make([]string, len(tb.Rows))
	for i, r := range tb.Rows {
		lines[i] = r.Values[0]
	}
	return strings.Join(lines, "\n")
}

// FuzzCandidateIndex checks the index against the Cartesian reference
// on arbitrary tables: it must enumerate exactly Naive's pairs, set and
// order, and account for every probed pair in its funnel. The threshold
// byte b maps to θ = (b mod 100 + 1)/100, so boundary ratios such as
// 3/20 are reachable.
func FuzzCandidateIndex(f *testing.F) {
	// TestIndexThresholdBoundaryExact's pair: Jaccard 3/20 at θ 0.15.
	var boundary []string
	for i := 0; i < 17; i++ {
		boundary = append(boundary, fmt.Sprintf("filler%02d", i))
	}
	f.Add("alpha beta gamma", "alpha beta gamma "+strings.Join(boundary, " "), byte(14))
	// A hot-token table: nearly every record shares a stop word.
	r := rand.New(rand.NewSource(1))
	f.Add(tableText(hotVocabTable(r, 30, "L")), tableText(hotVocabTable(r, 32, "R")), byte(33))

	f.Fuzz(func(t *testing.T, leftText, rightText string, thetaByte byte) {
		threshold := float64(int(thetaByte)%100+1) / 100
		d := dataset.NewDataset("fuzz", fuzzTable(leftText, "L"), fuzzTable(rightText, "R"), nil, threshold)

		want, err := Generate(context.Background(), NewNaive(d, threshold))
		if err != nil {
			t.Fatal(err)
		}
		idx := NewCandidateIndex(d, IndexOptions{Threshold: threshold})
		got, err := Generate(context.Background(), idx)
		if err != nil {
			t.Fatal(err)
		}
		assertPairsEqual(t, fmt.Sprintf("θ=%.2f", threshold), got.Pairs, want.Pairs)
		if st := idx.Stats(); st.Probed != st.SizeSkipped+st.CountSkipped+st.Verified {
			t.Fatalf("funnel leak: %+v", st)
		}
	})
}
