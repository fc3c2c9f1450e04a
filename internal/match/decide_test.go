package match

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/alem/alem/internal/bayes"
	"github.com/alem/alem/internal/blocking"
	"github.com/alem/alem/internal/core"
	"github.com/alem/alem/internal/dataset"
	"github.com/alem/alem/internal/feature"
	"github.com/alem/alem/internal/linear"
	"github.com/alem/alem/internal/neural"
	"github.com/alem/alem/internal/rules"
	"github.com/alem/alem/internal/tree"
)

// This file pins Decide's one-sweep scoring to the per-row scoring it
// replaced: legacyScore and legacyMatch are frozen copies of the deleted
// Score and of Match's Predict-then-Score loop.

// legacyScore is the deleted Score: the most informative surface the
// learner exposes, one row at a time. The net's case is the deleted
// Net.Prob, sigmoid(Margin(x)).
func legacyScore(l core.Learner, x feature.Vector) float64 {
	switch v := l.(type) {
	case *neural.Net:
		return 1 / (1 + math.Exp(-v.Margin(x)))
	case interface{ DecisionValue(feature.Vector) float64 }:
		return sigmoid(v.DecisionValue(x))
	case core.VoteLearner:
		pos, total := v.Votes(x)
		if total == 0 {
			return legacyBoolScore(l.Predict(x))
		}
		return float64(pos) / float64(total)
	case core.MarginLearner:
		mag := math.Abs(v.Margin(x))
		if l.Predict(x) {
			return sigmoid(mag)
		}
		return sigmoid(-mag)
	}
	return legacyBoolScore(l.Predict(x))
}

func legacyBoolScore(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// legacyMatch is Match's deleted scoring loop over featurized
// candidates: Predict each, and Score the predicted matches.
func legacyMatch(l core.Learner, left, right *dataset.Table, pairs []dataset.PairKey, X []feature.Vector) []Pair {
	var out []Pair
	for i, p := range pairs {
		if l.Predict(X[i]) {
			out = append(out, Pair{LeftID: left.Rows[p.L].ID, RightID: right.Rows[p.R].ID, Confidence: legacyScore(l, X[i])})
		}
	}
	return out
}

// kinds returns every learner kind the repo ships, trained on the beer
// vectors (float for all but the rule model, which reads the Boolean
// ones) and untrained.
func kinds(t *testing.T, X, Xb []feature.Vector, y []bool, schema []string) []struct {
	name    string
	l       core.Learner
	boolean bool
} {
	t.Helper()
	svm, net, forest, nb := linear.NewSVM(5), neural.NewNet(8, 5), tree.NewForest(10, 5), bayes.New()
	dnf := rules.NewModel(feature.NewBoolExtractor(schema))
	for _, l := range []core.Learner{svm, net, forest, nb} {
		l.Train(X, y)
	}
	dnf.Train(Xb, y)
	if len(dnf.Rules()) == 0 {
		t.Fatal("the rule model learned no rule; its matches would go untested")
	}
	return []struct {
		name    string
		l       core.Learner
		boolean bool
	}{
		{"svm", svm, false},
		{"nn", net, false},
		{"forest", forest, false},
		{"bayes", nb, false},
		{"rules", dnf, true},
		{"svm-untrained", linear.NewSVM(6), false},
		{"nn-untrained", neural.NewNet(8, 6), false},
		{"forest-untrained", tree.NewForest(10, 6), false},
		{"bayes-untrained", bayes.New(), false},
		{"rules-untrained", rules.NewModel(feature.NewBoolExtractor(schema)), true},
	}
}

// beerVectors featurizes beer's blocked candidates both ways.
func beerVectors(t *testing.T, seed int64) (d *dataset.Dataset, pairs []dataset.PairKey, X, Xb []feature.Vector, y []bool) {
	t.Helper()
	d, err := dataset.Load("beer", 1.0, seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := blocking.Generate(context.Background(), blocking.NewCandidateIndex(d, blocking.IndexOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	X = feature.NewExtractor(d.Left.Schema).ExtractPairs(d, res.Pairs)
	if Xb, err = feature.NewBoolExtractor(d.Left.Schema).VectorsContext(context.Background(), d, res.Pairs); err != nil {
		t.Fatal(err)
	}
	y = make([]bool, len(res.Pairs))
	for i, p := range res.Pairs {
		y[i] = d.IsMatch(p)
	}
	return d, res.Pairs, X, Xb, y
}

// TestDecideMatchesLegacyScore pins ScoreAll's scores and Decide's
// matches to legacyScore and Predict, bit for bit, for every learner
// kind, trained and untrained. The rows run past two ctxCheckEvery
// blocks and end with features that overflow the learners' arithmetic.
func TestDecideMatchesLegacyScore(t *testing.T) {
	d, _, X, Xb, y := beerVectors(t, 21)
	extend := func(X []feature.Vector) []feature.Vector {
		var out []feature.Vector
		for len(out) < 2*ctxCheckEvery+37 {
			out = append(out, X...)
		}
		for _, v := range []float64{1e200, math.Inf(1), math.Inf(-1), math.NaN(), -1e308} {
			x := append(feature.Vector(nil), X[0]...)
			x[0], x[len(x)-1] = v, -v
			out = append(out, x)
		}
		return out
	}
	rows, rowsBool := extend(X), extend(Xb)
	nonFinite := 0
	for _, k := range kinds(t, X, Xb, y, d.Left.Schema) {
		R := rows
		if k.boolean {
			R = rowsBool
		}
		got, err := ScoreAll(context.Background(), k.l, R)
		if err != nil {
			t.Fatal(err)
		}
		scores, matches, err := Decide(context.Background(), k.l, R)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(R) || len(scores) != len(R) || len(matches) != len(R) {
			t.Fatalf("%s: %d/%d scores and %d matches for %d rows", k.name, len(got), len(scores), len(matches), len(R))
		}
		for i, x := range R {
			want := legacyScore(k.l, x)
			if math.Float64bits(got[i]) != math.Float64bits(want) || math.Float64bits(scores[i]) != math.Float64bits(want) {
				t.Fatalf("%s row %d: ScoreAll %v, Decide %v, legacy Score %v", k.name, i, got[i], scores[i], want)
			}
			if matches[i] != k.l.Predict(x) {
				t.Fatalf("%s row %d: Decide's match %v, Predict %v", k.name, i, matches[i], k.l.Predict(x))
			}
		}
		if FirstNonFinite(scores) >= 0 {
			nonFinite++
		}
	}
	if nonFinite == 0 {
		t.Fatal("no learner scored a row non-finite; the overflow rows go untested")
	}
}

// TestMatchMatchesLegacyLoop pins Match's pairs and confidences to
// legacyMatch over the same candidates, for every learner kind, on
// fresh beer tables.
func TestMatchMatchesLegacyLoop(t *testing.T) {
	d, _, X, Xb, y := beerVectors(t, 21)
	fresh, pairs, freshX, freshXb, _ := beerVectors(t, 22)
	for _, k := range kinds(t, X, Xb, y, d.Left.Schema) {
		m := &Matcher{Learner: k.l, BlockThreshold: fresh.BlockThreshold}
		R := freshX
		if k.boolean {
			m.Features, R = BoolFeatures, freshXb
		}
		got, candidates, err := m.Match(context.Background(), fresh.Left, fresh.Right)
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		want := legacyMatch(k.l, fresh.Left, fresh.Right, pairs, R)
		if candidates != len(pairs) || len(got) != len(want) {
			t.Fatalf("%s: %d pairs of %d candidates, legacy %d of %d", k.name, len(got), candidates, len(want), len(pairs))
		}
		for i := range got {
			if got[i].LeftID != want[i].LeftID || got[i].RightID != want[i].RightID ||
				math.Float64bits(got[i].Confidence) != math.Float64bits(want[i].Confidence) {
				t.Fatalf("%s pair %d: %+v, legacy %+v", k.name, i, got[i], want[i])
			}
		}
		if strings.HasSuffix(k.name, "untrained") == (len(got) > 0) {
			t.Fatalf("%s matched %d of %d candidates", k.name, len(got), candidates)
		}
	}
}

// predictOnly is an outside learner with no graded surface.
type predictOnly struct{}

func (predictOnly) Name() string                    { return "predict-only" }
func (predictOnly) Train([]feature.Vector, []bool)  {}
func (predictOnly) Predict(x feature.Vector) bool   { return x[0] > 0.5 }
func (predictOnly) Margin(x feature.Vector) float64 { return math.Abs(x[0] - 0.5) }

// TestDecideOutsideLearnerIsZeroOne checks the Predict adapter's link:
// a learner that is not a DecisionLearner scores 1 for a predicted match
// and 0 otherwise, whatever else (here a Margin) it exposes.
func TestDecideOutsideLearnerIsZeroOne(t *testing.T) {
	X := []feature.Vector{{0.9}, {0.1}, {0.5}, {0.51}}
	scores, matches, err := Decide(context.Background(), predictOnly{}, X)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(scores, matches); got != "[1 0 0 1] [true false false true]" {
		t.Fatalf("scores and matches %s, want [1 0 0 1] [true false false true]", got)
	}
}

// TestFirstNonFinite names the first NaN or infinite score.
func TestFirstNonFinite(t *testing.T) {
	for _, tc := range []struct {
		scores []float64
		want   int
	}{
		{nil, -1},
		{[]float64{0, 0.5, 1}, -1},
		{[]float64{0.2, math.NaN(), math.Inf(1)}, 1},
		{[]float64{0.2, 0.3, math.Inf(-1)}, 2},
	} {
		if got := FirstNonFinite(tc.scores); got != tc.want {
			t.Errorf("FirstNonFinite(%v) = %d, want %d", tc.scores, got, tc.want)
		}
	}
}
