package blocking

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/alem/alem/internal/dataset"
	"github.com/alem/alem/internal/textsim"
)

// bruteForce computes the exact post-blocking set by scoring the full
// Cartesian product — the frozen specification every CandidateGenerator
// must match: pairs at or above the threshold that share at least one
// token (so the empty-empty Jaccard-1 pair is excluded, matching the
// package contract).
func bruteForce(d *dataset.Dataset, threshold float64) map[dataset.PairKey]bool {
	tok := textsim.Whitespace{}
	out := map[dataset.PairKey]bool{}
	right := make([][]string, len(d.Right.Rows))
	for r := range d.Right.Rows {
		right[r] = tok.Tokens(strings.Join(d.Right.Rows[r].Values, " "))
	}
	for l := range d.Left.Rows {
		lt := tok.Tokens(strings.Join(d.Left.Rows[l].Values, " "))
		if len(lt) == 0 {
			continue
		}
		for r, rt := range right {
			if len(rt) == 0 {
				continue
			}
			if textsim.JaccardTokens(lt, rt) >= threshold {
				out[dataset.PairKey{L: l, R: r}] = true
			}
		}
	}
	return out
}

// bruteForceOrdered is bruteForce in the canonical candidate order:
// left-major, right ascending.
func bruteForceOrdered(d *dataset.Dataset, threshold float64) []dataset.PairKey {
	set := bruteForce(d, threshold)
	var out []dataset.PairKey
	for l := range d.Left.Rows {
		for r := range d.Right.Rows {
			if set[dataset.PairKey{L: l, R: r}] {
				out = append(out, dataset.PairKey{L: l, R: r})
			}
		}
	}
	return out
}

// assertPairsEqual fails unless got matches want exactly — same set,
// same canonical order.
func assertPairsEqual(t *testing.T, label string, got, want []dataset.PairKey) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: pair %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// hotVocabTable generates a table whose records each start with one of
// three hot tokens (appearing in most records, the stop-word regime that
// stresses the prefix filter) followed by a few rarer tokens.
func hotVocabTable(r *rand.Rand, n int, side string) *dataset.Table {
	vocab := []string{
		"the", "of", "and", // hot: appear in most records
		"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
	}
	tb := &dataset.Table{}
	for i := 0; i < n; i++ {
		toks := []string{vocab[r.Intn(3)]} // at least one hot token
		for len(toks) < 1+r.Intn(5) {
			toks = append(toks, vocab[r.Intn(len(vocab))])
		}
		tb.Rows = append(tb.Rows, dataset.Record{
			ID:     fmt.Sprintf("%s%d", side, i),
			Values: []string{strings.Join(toks, " ")},
		})
	}
	return tb
}

// TestBlockMatchesBruteForce pins Block to brute force on generated
// profiles. dblp-scholar's long records at θ 0.1875 are the regime where
// prefixes cover most of each record and the count filter skips nearly
// every probed pair, so a bound that is off by one loses pairs there.
func TestBlockMatchesBruteForce(t *testing.T) {
	for _, tc := range []struct {
		name  string
		scale float64
	}{{"beer", 1.0}, {"amazon-bestbuy", 1.0}, {"dblp-scholar", 0.1}} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			d, err := dataset.Load(tc.name, tc.scale, 17)
			if err != nil {
				t.Fatal(err)
			}
			got := Block(d)
			assertPairsEqual(t, tc.name, got.Pairs, bruteForceOrdered(d, d.BlockThreshold))
		})
	}
}

func TestBlockAllPairsMeetThreshold(t *testing.T) {
	d, err := dataset.Load("dblp-acm", 0.05, 18)
	if err != nil {
		t.Fatal(err)
	}
	res := Block(d)
	tok := textsim.Whitespace{}
	for _, p := range res.Pairs {
		l, r := d.PairText(p)
		j := textsim.JaccardTokens(tok.Tokens(l), tok.Tokens(r))
		if j < d.BlockThreshold {
			t.Fatalf("pair %v has Jaccard %.4f below threshold %.4f", p, j, d.BlockThreshold)
		}
	}
}

func TestBlockEmptyDataset(t *testing.T) {
	d := dataset.NewDataset("empty", &dataset.Table{}, &dataset.Table{}, nil, 0.2)
	res := Block(d)
	if len(res.Pairs) != 0 || res.MatchesTotal != 0 {
		t.Errorf("empty dataset blocked to %d pairs", len(res.Pairs))
	}
}

func TestBlockSkewOnNoMatches(t *testing.T) {
	l := &dataset.Table{Rows: []dataset.Record{{ID: "L0", Values: []string{"alpha beta"}}}}
	r := &dataset.Table{Rows: []dataset.Record{{ID: "R0", Values: []string{"alpha beta"}}}}
	d := dataset.NewDataset("x", l, r, nil, 0.2)
	res := Block(d)
	if res.Skew(d) != 0 {
		t.Errorf("skew = %v on a dataset with no matches", res.Skew(d))
	}
}

// TestIndexEquivalenceRandomVocab is the core equivalence property:
// randomized hot-token vocabularies (nearly every record shares a stop
// word, the adversarial regime for any pruning index), blocked by the
// indexed generator at shard counts {1, 2, 8} and by the naive
// generator, must all reproduce exactly the frozen brute-force pair
// sequence — set and order.
func TestIndexEquivalenceRandomVocab(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		for _, threshold := range []float64{0.15, 0.34, 0.5} {
			r := rand.New(rand.NewSource(seed))
			d := dataset.NewDataset("prop", hotVocabTable(r, 30, "L"), hotVocabTable(r, 40, "R"), nil, threshold)
			want := bruteForceOrdered(d, threshold)

			naive, err := Generate(context.Background(), NewNaive(d, threshold))
			if err != nil {
				t.Fatal(err)
			}
			assertPairsEqual(t, fmt.Sprintf("naive seed=%d θ=%.2f", seed, threshold), naive.Pairs, want)

			for _, shards := range []int{1, 2, 8} {
				for _, workers := range []int{1, 0} {
					idx := NewCandidateIndex(d, IndexOptions{Threshold: threshold, Shards: shards, Workers: workers})
					got, err := Generate(context.Background(), idx)
					if err != nil {
						t.Fatal(err)
					}
					assertPairsEqual(t,
						fmt.Sprintf("index seed=%d θ=%.2f shards=%d workers=%d", seed, threshold, shards, workers),
						got.Pairs, want)
				}
			}
		}
	}
}

// TestIndexEquivalenceIncrementalAdd pins the incremental ingest path:
// an index built over a prefix of the right table and extended one
// record at a time with Add must enumerate exactly the same candidates
// as an index built from scratch over the full table — and both must
// match brute force. Document frequencies drift between the two paths
// (Add chooses prefixes under insert-time statistics), so this is the
// test that proves prefix choice never affects the candidate set.
func TestIndexEquivalenceIncrementalAdd(t *testing.T) {
	for _, seed := range []int64{11, 12, 13} {
		for _, threshold := range []float64{0.15, 0.34, 0.5} {
			r := rand.New(rand.NewSource(seed))
			left := hotVocabTable(r, 30, "L")
			rightFull := hotVocabTable(r, 40, "R")
			cut := 25

			dFull := dataset.NewDataset("full", left, rightFull, nil, threshold)
			want := bruteForceOrdered(dFull, threshold)

			for _, shards := range []int{1, 2, 8} {
				rightPrefix := &dataset.Table{Name: rightFull.Name, Schema: rightFull.Schema,
					Rows: rightFull.Rows[:cut]}
				dPrefix := dataset.NewDataset("prefix", left, rightPrefix, nil, threshold)
				idx := NewCandidateIndex(dPrefix, IndexOptions{Threshold: threshold, Shards: shards})
				if err := idx.Build(context.Background()); err != nil {
					t.Fatal(err)
				}
				for i, rec := range rightFull.Rows[cut:] {
					ri, err := idx.Add(context.Background(), rec)
					if err != nil {
						t.Fatal(err)
					}
					if ri != cut+i {
						t.Fatalf("Add assigned right index %d, want %d", ri, cut+i)
					}
				}
				got, err := idx.Candidates(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				assertPairsEqual(t,
					fmt.Sprintf("incremental seed=%d θ=%.2f shards=%d", seed, threshold, shards),
					got.Pairs, want)

				st := idx.Stats()
				if st.Adds != int64(len(rightFull.Rows)-cut) {
					t.Fatalf("Stats.Adds = %d, want %d", st.Adds, len(rightFull.Rows)-cut)
				}
				if st.RightRecords != len(rightFull.Rows) {
					t.Fatalf("Stats.RightRecords = %d, want %d", st.RightRecords, len(rightFull.Rows))
				}
			}
		}
	}
}

// TestIndexHotTokenRecall is the stop-token regression carried over from
// the pre-index implementation (the PR 4 pigeonhole repair): a left
// record consisting of nothing but a corpus-wide stop token must still
// pair with an identical right record. The prefix filter keeps the hot
// token posted for single-token records because their prefix is the
// whole record.
func TestIndexHotTokenRecall(t *testing.T) {
	var rrows []dataset.Record
	for i := 0; i < 10; i++ {
		val := "common"
		if i > 0 {
			val = "common rare" + string(rune('a'+i))
		}
		rrows = append(rrows, dataset.Record{ID: "R" + string(rune('0'+i)), Values: []string{val}})
	}
	l := &dataset.Table{Rows: []dataset.Record{{ID: "L0", Values: []string{"common"}}}}
	r := &dataset.Table{Rows: rrows}
	d := dataset.NewDataset("stopword", l, r, nil, 0.5)

	res, err := Generate(context.Background(), NewCandidateIndex(d, IndexOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range res.Pairs {
		if p.L == 0 && p.R == 0 { // left "common" vs right "common": Jaccard 1.0
			found = true
		}
	}
	if !found {
		t.Fatal("pair (L0, R0) with Jaccard 1.0 dropped by the indexed path")
	}
	assertPairsEqual(t, "stopword", res.Pairs, bruteForceOrdered(d, 0.5))
}

// TestIndexThresholdBoundaryExact pins the float-arithmetic contract of
// the prefix and size filters: a pair sitting exactly on the threshold
// (Jaccard 3/20 at θ=0.15, where ceil(0.15·20) over floats rounds to 4
// instead of the correct 3) must survive the indexed path, because the
// filters are computed with the verifier's own division rather than
// math.Ceil over a float product.
func TestIndexThresholdBoundaryExact(t *testing.T) {
	// Left record: 3 tokens, all shared. Right record: 20 tokens
	// containing those 3 → Jaccard = 3/20 = 0.15 exactly.
	shared := []string{"alpha", "beta", "gamma"}
	var rtoks []string
	rtoks = append(rtoks, shared...)
	for i := 0; i < 17; i++ {
		rtoks = append(rtoks, fmt.Sprintf("filler%02d", i))
	}
	l := &dataset.Table{Rows: []dataset.Record{{ID: "L0", Values: []string{strings.Join(shared, " ")}}}}
	r := &dataset.Table{Rows: []dataset.Record{{ID: "R0", Values: []string{strings.Join(rtoks, " ")}}}}
	d := dataset.NewDataset("boundary", l, r, nil, 0.15)

	want := bruteForceOrdered(d, 0.15)
	if len(want) != 1 {
		t.Fatalf("fixture broken: brute force found %d pairs, want 1", len(want))
	}
	for _, shards := range []int{1, 2, 8} {
		res, err := Generate(context.Background(), NewCandidateIndex(d, IndexOptions{Shards: shards}))
		if err != nil {
			t.Fatal(err)
		}
		assertPairsEqual(t, fmt.Sprintf("boundary shards=%d", shards), res.Pairs, want)
	}
}

// TestGeneratorLifecycleErrors pins the Build-first contract.
func TestGeneratorLifecycleErrors(t *testing.T) {
	d := tinyDataset(0.2)
	for _, gen := range []CandidateGenerator{
		NewCandidateIndex(d, IndexOptions{}),
		NewNaive(d, 0),
	} {
		if _, err := gen.Candidates(context.Background()); err != ErrNotBuilt {
			t.Errorf("%T.Candidates before Build: err = %v, want ErrNotBuilt", gen, err)
		}
		if _, err := gen.Add(context.Background(), dataset.Record{ID: "X", Values: []string{"a"}}); err != ErrNotBuilt {
			t.Errorf("%T.Add before Build: err = %v, want ErrNotBuilt", gen, err)
		}
		if gen.Stats().Built {
			t.Errorf("%T.Stats().Built = true before Build", gen)
		}
	}
}

// TestIndexStatsFunnel sanity-checks the probe → size/count filter →
// verify → keep funnel accounting, and that the count filter fires.
func TestIndexStatsFunnel(t *testing.T) {
	d, err := dataset.Load("beer", 1.0, 17)
	if err != nil {
		t.Fatal(err)
	}
	idx := NewCandidateIndex(d, IndexOptions{})
	res, err := Generate(context.Background(), idx)
	if err != nil {
		t.Fatal(err)
	}
	st := idx.Stats()
	if !st.Built || st.Builds != 1 {
		t.Fatalf("Built/Builds = %v/%d, want true/1", st.Built, st.Builds)
	}
	if st.RightRecords != len(d.Right.Rows) {
		t.Errorf("RightRecords = %d, want %d", st.RightRecords, len(d.Right.Rows))
	}
	if st.Tokens <= 0 || st.Postings <= 0 || st.Shards <= 0 {
		t.Errorf("degenerate index shape: %+v", st)
	}
	if st.Postings > st.Tokens*len(d.Right.Rows) {
		t.Errorf("postings %d exceed tokens×records", st.Postings)
	}
	if st.SizeSkipped+st.CountSkipped+st.Verified != st.Probed {
		t.Errorf("funnel leak: probed %d != sizeSkipped %d + countSkipped %d + verified %d",
			st.Probed, st.SizeSkipped, st.CountSkipped, st.Verified)
	}
	if st.CountSkipped == 0 {
		t.Errorf("count filter skipped nothing of %d probed pairs", st.Probed)
	}
	if st.Kept != int64(len(res.Pairs)) {
		t.Errorf("Kept = %d, want %d", st.Kept, len(res.Pairs))
	}
	if st.Kept > st.Verified {
		t.Errorf("kept %d > verified %d", st.Kept, st.Verified)
	}
}

func TestSortedNeighborhoodBasics(t *testing.T) {
	d, err := dataset.Load("beer", 1.0, 23)
	if err != nil {
		t.Fatal(err)
	}
	res := SortedNeighborhood(d, "beer_name", 10)
	if len(res.Pairs) == 0 {
		t.Fatal("no candidates")
	}
	// All pairs are cross-table and unique.
	seen := map[dataset.PairKey]bool{}
	for _, p := range res.Pairs {
		if seen[p] {
			t.Fatalf("duplicate pair %v", p)
		}
		seen[p] = true
		if p.L < 0 || p.L >= len(d.Left.Rows) || p.R < 0 || p.R >= len(d.Right.Rows) {
			t.Fatalf("pair %v out of range", p)
		}
	}
	if res.MatchesKept == 0 {
		t.Error("sorted neighborhood kept no matches")
	}
}

func TestSortedNeighborhoodWindowMonotone(t *testing.T) {
	d, err := dataset.Load("beer", 1.0, 23)
	if err != nil {
		t.Fatal(err)
	}
	small := SortedNeighborhood(d, "", 4)
	big := SortedNeighborhood(d, "", 16)
	if len(big.Pairs) < len(small.Pairs) {
		t.Errorf("larger window produced fewer candidates: %d < %d",
			len(big.Pairs), len(small.Pairs))
	}
	if big.MatchesKept < small.MatchesKept {
		t.Errorf("larger window kept fewer matches: %d < %d",
			big.MatchesKept, small.MatchesKept)
	}
	// Small-window candidates are a subset of large-window candidates.
	bigSet := map[dataset.PairKey]bool{}
	for _, p := range big.Pairs {
		bigSet[p] = true
	}
	for _, p := range small.Pairs {
		if !bigSet[p] {
			t.Fatalf("pair %v in window-4 but not window-16", p)
		}
	}
}

func TestSortedNeighborhoodDegenerateWindow(t *testing.T) {
	d := tinyDataset(0.2)
	res := SortedNeighborhood(d, "", 0) // clamps to 2
	for _, p := range res.Pairs {
		_ = p
	}
	if res.MatchesTotal != 2 {
		t.Errorf("MatchesTotal = %d, want 2", res.MatchesTotal)
	}
}
