package oracle

import (
	"context"
	"errors"
	"testing"

	"github.com/alem/alem/internal/dataset"
)

func toyDataset() *dataset.Dataset {
	l := &dataset.Table{Rows: make([]dataset.Record, 10)}
	r := &dataset.Table{Rows: make([]dataset.Record, 10)}
	var matches []dataset.PairKey
	for i := 0; i < 10; i++ {
		matches = append(matches, dataset.PairKey{L: i, R: i})
	}
	return dataset.NewDataset("toy", l, r, matches, 0.2)
}

func TestPerfectOracle(t *testing.T) {
	d := toyDataset()
	o := NewPerfect(d)
	if !o.Label(dataset.PairKey{L: 3, R: 3}) {
		t.Error("perfect oracle mislabeled a match")
	}
	if o.Label(dataset.PairKey{L: 3, R: 4}) {
		t.Error("perfect oracle mislabeled a non-match")
	}
	if o.Queries() != 2 {
		t.Errorf("Queries = %d, want 2", o.Queries())
	}
}

func TestNoisyOracleZeroNoiseIsPerfect(t *testing.T) {
	d := toyDataset()
	o := NewNoisy(d, 0, 1)
	for i := 0; i < 10; i++ {
		if !o.Label(dataset.PairKey{L: i, R: i}) {
			t.Fatal("0%-noise oracle flipped a label")
		}
	}
}

func TestNoisyOracleFlipRate(t *testing.T) {
	d := toyDataset()
	o := NewNoisy(d, 0.3, 42)
	flips := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if !o.Label(dataset.PairKey{L: i % 10, R: i % 10}) {
			flips++
		}
	}
	rate := float64(flips) / n
	if rate < 0.27 || rate > 0.33 {
		t.Errorf("flip rate = %.3f, want ~0.30", rate)
	}
	if o.Queries() != n {
		t.Errorf("Queries = %d, want %d", o.Queries(), n)
	}
}

func TestNoisyOracleDeterministicSeed(t *testing.T) {
	d := toyDataset()
	a := NewNoisy(d, 0.4, 7)
	b := NewNoisy(d, 0.4, 7)
	for i := 0; i < 100; i++ {
		p := dataset.PairKey{L: i % 10, R: (i + i%2) % 10}
		if a.Label(p) != b.Label(p) {
			t.Fatal("same-seed noisy oracles disagree")
		}
	}
}

func TestNoisyOracleFullNoiseInvertsEverything(t *testing.T) {
	d := toyDataset()
	o := NewNoisy(d, 1.0, 3)
	if o.Label(dataset.PairKey{L: 0, R: 0}) {
		t.Error("100%-noise oracle should always flip")
	}
	if !o.Label(dataset.PairKey{L: 0, R: 1}) {
		t.Error("100%-noise oracle should always flip")
	}
}

func TestMajorityVoteReducesEffectiveNoise(t *testing.T) {
	d := toyDataset()
	inner := NewNoisy(d, 0.3, 9)
	mv := NewMajorityVote(inner, 5)
	flips := 0
	const n = 5000
	for i := 0; i < n; i++ {
		if !mv.Label(dataset.PairKey{L: i % 10, R: i % 10}) {
			flips++
		}
	}
	rate := float64(flips) / n
	// P(>=3 of 5 votes flipped at p=0.3) ≈ 0.163 — far below 0.3.
	if rate > 0.22 {
		t.Errorf("majority-vote flip rate %.3f, want well below the raw 0.30", rate)
	}
	if mv.Queries() != 5*n {
		t.Errorf("Queries = %d, want %d (crowd pays per worker)", mv.Queries(), 5*n)
	}
}

func TestMajorityVoteRoundsEvenK(t *testing.T) {
	d := toyDataset()
	mv := NewMajorityVote(NewNoisy(d, 0, 1), 4)
	mv.Label(dataset.PairKey{L: 0, R: 0})
	if mv.Queries() != 5 {
		t.Errorf("even k should round up to 5, queries = %d", mv.Queries())
	}
	one := NewMajorityVote(NewNoisy(d, 0, 1), 0)
	one.Label(dataset.PairKey{L: 0, R: 0})
	if one.Queries() != 1 {
		t.Errorf("k=0 should clamp to 1, queries = %d", one.Queries())
	}
}

func TestMajorityVotePerfectInnerIsPerfect(t *testing.T) {
	d := toyDataset()
	mv := NewMajorityVote(NewPerfect(d), 3)
	if !mv.Label(dataset.PairKey{L: 2, R: 2}) {
		t.Error("majority of perfect votes mislabeled a match")
	}
	if mv.Label(dataset.PairKey{L: 2, R: 3}) {
		t.Error("majority of perfect votes mislabeled a non-match")
	}
}

func TestNoisyStatefulAdvanceRealignsRNG(t *testing.T) {
	d := toyDataset()
	keys := []dataset.PairKey{{L: 0, R: 0}, {L: 1, R: 1}, {L: 2, R: 3}, {L: 0, R: 1}}

	// Run a noisy oracle partway, note its draw count, then build a fresh
	// instance with the same seed and Advance it to the same position: the
	// remaining label sequence must match exactly.
	ref := NewNoisy(d, 0.5, 42)
	for i := 0; i < 7; i++ {
		ref.Label(keys[i%len(keys)])
	}
	resumed := NewNoisy(d, 0.5, 42)
	resumed.Advance(ref.Draws())
	if resumed.Draws() != ref.Draws() {
		t.Fatalf("Draws after Advance = %d, want %d", resumed.Draws(), ref.Draws())
	}
	for i := 0; i < 20; i++ {
		p := keys[i%len(keys)]
		if ref.Label(p) != resumed.Label(p) {
			t.Fatalf("label %d diverged after Advance", i)
		}
	}
}

// TestMajorityVoteStatefulInRounds pins MajorityVote's Stateful hook:
// Draws counts vote rounds, and a fresh voter advanced by them continues
// the exact vote sequence of the one it replaces.
func TestMajorityVoteStatefulInRounds(t *testing.T) {
	d := toyDataset()
	keys := []dataset.PairKey{{L: 0, R: 0}, {L: 1, R: 1}, {L: 2, R: 3}, {L: 0, R: 1}}
	ref := NewMajorityVote(NewNoisy(d, 0.4, 42), 3)
	for i := 0; i < 7; i++ {
		ref.Label(keys[i%len(keys)])
	}
	if ref.Draws() != 7 {
		t.Fatalf("Draws = %d after 7 votes, want 7", ref.Draws())
	}
	inner := NewNoisy(d, 0.4, 42)
	resumed := NewMajorityVote(inner, 3)
	resumed.Advance(ref.Draws())
	if resumed.Draws() != 7 || inner.Draws() != 21 {
		t.Fatalf("after Advance(7): %d rounds, voter at draw %d; want 7 and 21", resumed.Draws(), inner.Draws())
	}
	for i := 0; i < 40; i++ {
		p := keys[i%len(keys)]
		if ref.Label(p) != resumed.Label(p) {
			t.Fatalf("vote %d diverged after Advance", i)
		}
	}
	stateless := NewMajorityVote(NewPerfect(d), 3)
	stateless.Advance(5)
	if stateless.Draws() != 5 || stateless.Queries() != 0 {
		t.Errorf("stateless voter after Advance(5): %d rounds, %d queries; want 5 and 0",
			stateless.Draws(), stateless.Queries())
	}
}

// TestPerPairAnswersOnePairPerCall pins the per-pair adapter's contract:
// each LabelBatch call asks the oracle about its first pair only, and a
// cancelled context aborts before the query.
func TestPerPairAnswersOnePairPerCall(t *testing.T) {
	d := toyDataset()
	p, q := dataset.PairKey{L: 1, R: 1}, dataset.PairKey{L: 1, R: 2}
	o := NewPerfect(d)
	bo := PerPair(o)
	ctx := context.Background()
	for _, tc := range []struct {
		pairs []dataset.PairKey
		want  Verdict
	}{
		{[]dataset.PairKey{p, q}, VerdictMatch},
		{[]dataset.PairKey{q, p}, VerdictNonMatch},
	} {
		answers, err := bo.LabelBatch(ctx, tc.pairs)
		if err != nil || len(answers) != 1 || answers[0].Verdict != tc.want || answers[0].Err != nil || answers[0].Cost != 0 {
			t.Fatalf("LabelBatch(%v) = %+v, %v; want one free %v answer", tc.pairs, answers, err, tc.want)
		}
	}
	if answers, err := bo.LabelBatch(ctx, nil); len(answers) != 0 || err != nil {
		t.Errorf("empty batch answered %+v, %v", answers, err)
	}
	if o.Queries() != 2 || bo.Queries() != 2 {
		t.Errorf("queries = %d (adapter %d), want one per call", o.Queries(), bo.Queries())
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if answers, err := bo.LabelBatch(cancelled, []dataset.PairKey{p}); len(answers) != 0 || !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled call gave %+v, %v", answers, err)
	}
	if o.Queries() != 2 {
		t.Errorf("a cancelled call reached the oracle")
	}
}
