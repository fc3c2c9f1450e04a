package blocking

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/alem/alem/internal/dataset"
)

// TestCandidatesAllocSteadyState ratchets the per-call allocations of a
// warmed Candidates enumeration: with the left records' token ids mapped
// by Build and the stamp arrays pooled, a repeat call allocates only the
// output structures (per-left pair slices and the assembled result) plus
// fixed scheduling overhead — nothing proportional to token counts.
func TestCandidatesAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation behaviour differs under the race detector")
	}
	r := rand.New(rand.NewSource(42))
	threshold := 0.34
	d := dataset.NewDataset("alloc", hotVocabTable(r, 40, "L"), hotVocabTable(r, 40, "R"), nil, threshold)
	idx := NewCandidateIndex(d, IndexOptions{Threshold: threshold, Workers: 1})
	if err := idx.Build(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := idx.Candidates(ctx); err != nil { // warm the pools
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := idx.Candidates(ctx); err != nil {
			t.Fatal(err)
		}
	})
	// Budget: one right-sized pairs slice per productive left record,
	// the perLeft table, the result assembly and par.Chunks machinery.
	// A stamps array, a known-ids mapping and sort, or a pairs slice grown
	// by repeated append, per left record per call, would each exceed it.
	nL := len(d.Left.Rows)
	budget := float64(nL + 24)
	t.Logf("Candidates steady-state allocs/call = %.1f (budget %.0f, %d left records)", allocs, budget, nL)
	if allocs > budget {
		t.Fatalf("warmed Candidates allocates %.1f per call, ratchet budget %.0f", allocs, budget)
	}
}

// TestLowerJoinKeyEquivalence pins the one-pass sorted-neighborhood key
// builder byte-identical to the frozen two-pass form it replaced,
// including multi-byte lowering, case-widening runes and invalid UTF-8.
func TestLowerJoinKeyEquivalence(t *testing.T) {
	cases := [][]string{
		nil,
		{},
		{""},
		{"", ""},
		{"Samsung GALAXY S21"},
		{"Apple iPhone", "NOIR 128GB", "5G"},
		{"ÄÖÜ Straße", "İstanbul"},
		{"ſharp", "Ⱥb", "µmeter"},
		{"bad\xffbyte", "tail\xc3"},
		{"  spaced  ", "\ttabs\t"},
	}
	for i, vals := range cases {
		want := strings.ToLower(strings.Join(vals, " "))
		if got := lowerJoinKey(vals); got != want {
			t.Errorf("case %d %q: lowerJoinKey = %q, want %q", i, vals, got, want)
		}
	}
	r := rand.New(rand.NewSource(43))
	alphabet := []rune("aZß ÄøΣ�İⱥ")
	for i := 0; i < 500; i++ {
		vals := make([]string, r.Intn(4))
		for j := range vals {
			var sb strings.Builder
			for k := 0; k < r.Intn(8); k++ {
				sb.WriteRune(alphabet[r.Intn(len(alphabet))])
			}
			vals[j] = sb.String()
		}
		want := strings.ToLower(strings.Join(vals, " "))
		if got := lowerJoinKey(vals); got != want {
			t.Fatalf("random case %d %q: lowerJoinKey = %q, want %q", i, vals, got, want)
		}
	}
}

// TestSortedNeighborhoodDeterministic pins run-to-run determinism of
// the window scan: the candidate sequence must be a pure function of
// the dataset (the dedup map is only ever probed, never iterated, and
// the sort comparators break all ties).
func TestSortedNeighborhoodDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	d := dataset.NewDataset("sn", hotVocabTable(r, 60, "L"), hotVocabTable(r, 60, "R"), nil, 0.2)
	for _, keyAttr := range []string{"", "attr0"} {
		base := SortedNeighborhood(d, keyAttr, 8)
		for run := 1; run <= 3; run++ {
			again := SortedNeighborhood(d, keyAttr, 8)
			assertPairsEqual(t, fmt.Sprintf("keyAttr=%q run %d", keyAttr, run), again.Pairs, base.Pairs)
		}
	}
}
