package match

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/alem/alem/internal/blocking"
	"github.com/alem/alem/internal/core"
	"github.com/alem/alem/internal/dataset"
	"github.com/alem/alem/internal/feature"
	"github.com/alem/alem/internal/linear"
	"github.com/alem/alem/internal/oracle"
	"github.com/alem/alem/internal/rules"
	"github.com/alem/alem/internal/tree"
)

// trainForest actively trains a forest on one seed of the beer dataset.
func trainForest(t *testing.T, seed int64) (*tree.Forest, *dataset.Dataset) {
	t.Helper()
	d, err := dataset.Load("beer", 1.0, seed)
	if err != nil {
		t.Fatal(err)
	}
	pool := core.NewPool(d)
	f := tree.NewForest(10, seed)
	core.Run(pool, f, core.ForestQBC{}, oracle.NewPerfect(d), core.Config{
		Seed: seed, TargetF1: 0.99,
	})
	return f, d
}

// ids projects predicted pairs onto their ID tuple for truth lookups.
func ids(p Pair) [2]string { return [2]string{p.LeftID, p.RightID} }

func TestMatcherOnFreshTables(t *testing.T) {
	f, train := trainForest(t, 31)
	// Fresh tables from a different generator seed: unseen records, same
	// schema and generation process.
	fresh, err := dataset.Load("beer", 1.0, 77)
	if err != nil {
		t.Fatal(err)
	}
	m := &Matcher{Learner: f, BlockThreshold: train.BlockThreshold}
	pairs, candidates, err := m.Match(context.Background(), fresh.Left, fresh.Right)
	if err != nil {
		t.Fatal(err)
	}
	if candidates == 0 {
		t.Fatal("no candidates after blocking")
	}
	// Every predicted pair must carry a usable confidence.
	for _, p := range pairs {
		if p.Confidence < 0 || p.Confidence > 1 {
			t.Fatalf("pair %v confidence %f outside [0,1]", p, p.Confidence)
		}
	}
	// Precision/recall of the deployed model against the fresh truth.
	pred := map[[2]string]bool{}
	for _, p := range pairs {
		pred[ids(p)] = true
	}
	res, err := blocking.Generate(context.Background(),
		blocking.NewCandidateIndex(fresh, blocking.IndexOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	tp, fp, fn := 0, 0, 0
	for _, pk := range res.Pairs {
		pair := [2]string{fresh.Left.Rows[pk.L].ID, fresh.Right.Rows[pk.R].ID}
		switch {
		case pred[pair] && fresh.IsMatch(pk):
			tp++
		case pred[pair] && !fresh.IsMatch(pk):
			fp++
		case !pred[pair] && fresh.IsMatch(pk):
			fn++
		}
	}
	f1 := 0.0
	if 2*tp+fp+fn > 0 {
		f1 = 2 * float64(tp) / float64(2*tp+fp+fn)
	}
	if f1 < 0.7 {
		t.Errorf("deployed model F1 = %.3f on fresh tables, want >= 0.7", f1)
	}
}

func TestMatcherSchemaMismatch(t *testing.T) {
	f, _ := trainForest(t, 32)
	left := &dataset.Table{Schema: []string{"a", "b"}, Rows: []dataset.Record{{ID: "L0", Values: []string{"x", "y"}}}}
	right := &dataset.Table{Schema: []string{"a"}, Rows: []dataset.Record{{ID: "R0", Values: []string{"x"}}}}
	m := &Matcher{Learner: f, BlockThreshold: 0.2}
	if _, _, err := m.Match(context.Background(), left, right); err == nil {
		t.Error("Match accepted mismatched schemas")
	}
}

func TestMatcherNilLearner(t *testing.T) {
	m := &Matcher{BlockThreshold: 0.2}
	if _, _, err := m.Match(context.Background(), &dataset.Table{}, &dataset.Table{}); err == nil {
		t.Error("Match accepted a nil learner")
	}
}

// TestMatcherDimMismatchUpFront is the satellite fix: a learner trained
// on a different feature width must be rejected before any record is
// blocked or featurized, not mispredict or panic inside Predict.
func TestMatcherDimMismatchUpFront(t *testing.T) {
	svm := linear.NewSVM(1)
	// Train on 5-dim vectors; a 1-attribute schema would produce 21.
	svm.Train([]feature.Vector{{1, 0, 0, 0, 0}, {0, 1, 1, 1, 1}}, []bool{true, false})
	tbl := &dataset.Table{Schema: []string{"name"},
		Rows: []dataset.Record{{ID: "L0", Values: []string{"pale ale"}}}}
	m := &Matcher{Learner: svm, BlockThreshold: 0.1}
	_, _, err := m.Match(context.Background(), tbl, tbl)
	if err == nil {
		t.Fatal("Match accepted a learner trained on a different dimensionality")
	}
	if !strings.Contains(err.Error(), "5-dim") {
		t.Errorf("error %q does not name the trained dimensionality", err)
	}
}

// TestMatcherExtendedFeatures closes the extended-metrics hole: a
// learner trained on NewExtendedExtractor's 25-metric vectors is scored
// on the same pipeline at deployment, not silently on 21 metrics.
func TestMatcherExtendedFeatures(t *testing.T) {
	d, err := dataset.Load("beer", 1.0, 44)
	if err != nil {
		t.Fatal(err)
	}
	corpus := feature.CorpusOf(d)
	ext := feature.NewExtendedExtractor(d.Left.Schema, corpus)
	res, err := blocking.Generate(context.Background(),
		blocking.NewCandidateIndex(d, blocking.IndexOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	X := ext.ExtractPairs(d, res.Pairs)
	y := make([]bool, len(X))
	for i, p := range res.Pairs {
		y[i] = d.IsMatch(p)
	}
	svm := linear.NewSVM(44)
	svm.Train(X, y)

	fresh, err := dataset.Load("beer", 1.0, 45)
	if err != nil {
		t.Fatal(err)
	}

	// The old behaviour: deploying behind the standard pipeline is now a
	// loud dimension error instead of silent misprediction.
	wrong := &Matcher{Learner: svm, BlockThreshold: d.BlockThreshold}
	if _, _, err := wrong.Match(context.Background(), fresh.Left, fresh.Right); err == nil {
		t.Fatal("extended-trained learner accepted on the 21-metric pipeline")
	}

	m := &Matcher{Learner: svm, BlockThreshold: d.BlockThreshold,
		Features: ExtendedFeatures, Corpus: corpus}
	pairs, candidates, err := m.Match(context.Background(), fresh.Left, fresh.Right)
	if err != nil {
		t.Fatal(err)
	}
	if candidates == 0 || len(pairs) == 0 {
		t.Fatalf("extended matcher predicted %d of %d candidates", len(pairs), candidates)
	}

	// Extended mode without its corpus must fail loudly.
	noCorpus := &Matcher{Learner: svm, BlockThreshold: d.BlockThreshold, Features: ExtendedFeatures}
	if _, _, err := noCorpus.Match(context.Background(), fresh.Left, fresh.Right); err == nil {
		t.Error("ExtendedFeatures without a corpus was accepted")
	}
}

func TestMatcherCancelledContext(t *testing.T) {
	f, train := trainForest(t, 35)
	fresh, err := dataset.Load("beer", 1.0, 78)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := &Matcher{Learner: f, BlockThreshold: train.BlockThreshold}
	if _, _, err := m.Match(ctx, fresh.Left, fresh.Right); err != context.Canceled {
		t.Errorf("Match on a cancelled context returned %v, want context.Canceled", err)
	}
}

func TestMatcherExtractorReuse(t *testing.T) {
	f, train := trainForest(t, 36)
	fresh, err := dataset.Load("beer", 1.0, 79)
	if err != nil {
		t.Fatal(err)
	}
	m := &Matcher{Learner: f, BlockThreshold: train.BlockThreshold}
	for i := 0; i < 3; i++ {
		if _, _, err := m.Match(context.Background(), fresh.Left, fresh.Right); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := m.ExtractorReuse()
	if misses != 1 || hits != 2 {
		t.Errorf("extractor reuse hits=%d misses=%d, want 2/1", hits, misses)
	}
}

// summedIndexStats is what IndexTotals should read after n complete
// Match calls over these tables: n times the counters of the one index
// each call builds.
func summedIndexStats(t *testing.T, left, right *dataset.Table, threshold float64, n int) blocking.IndexStats {
	t.Helper()
	idx := blocking.NewCandidateIndex(dataset.NewDataset("match", left, right, nil, threshold), blocking.IndexOptions{})
	if _, err := blocking.Generate(context.Background(), idx); err != nil {
		t.Fatal(err)
	}
	var sum blocking.IndexStats
	for i := 0; i < n; i++ {
		sum.Accumulate(idx.Stats())
	}
	return sum
}

// TestMatcherIndexTotalsConcurrent runs Match from several goroutines
// on one Matcher while another goroutine reads IndexTotals, as a
// server's requests and scrapes do: the totals must sum every call's
// index.
func TestMatcherIndexTotalsConcurrent(t *testing.T) {
	f, train := trainForest(t, 37)
	fresh, err := dataset.Load("beer", 1.0, 80)
	if err != nil {
		t.Fatal(err)
	}
	const calls = 4
	want := summedIndexStats(t, fresh.Left, fresh.Right, train.BlockThreshold, calls)
	m := &Matcher{Learner: f, BlockThreshold: train.BlockThreshold}
	stop := make(chan struct{})
	var wg, reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
				m.IndexTotals()
			}
		}
	}()
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := m.Match(context.Background(), fresh.Left, fresh.Right); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	close(stop)
	reader.Wait()
	if got := m.IndexTotals(); got != want {
		t.Errorf("IndexTotals after %d calls = %+v, want %+v", calls, got, want)
	}
}

// pollBudgetCtx reports Canceled once its budget of Err polls is spent,
// so a budget lands a cancellation at one point of the pipeline without
// timing races.
type pollBudgetCtx struct {
	context.Context
	left atomic.Int64
}

func (c *pollBudgetCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestMatcherIndexTotalsCountCancelledCalls cancels Match at every poll
// budget up to completion. Every exit after candidate generation counts
// the call's index: a call cancelled before or inside Build counts
// nothing, one cancelled inside Candidates counts its build and the
// funnel so far, and one cancelled during featurization or scoring
// counts the whole index.
func TestMatcherIndexTotalsCountCancelledCalls(t *testing.T) {
	f, train := trainForest(t, 38)
	fresh, err := dataset.Load("beer", 1.0, 81)
	if err != nil {
		t.Fatal(err)
	}
	want := summedIndexStats(t, fresh.Left, fresh.Right, train.BlockThreshold, 1)
	var enumerating, generated int
	for polls := int64(0); ; polls++ {
		m := &Matcher{Learner: f, BlockThreshold: train.BlockThreshold}
		ctx := &pollBudgetCtx{Context: context.Background()}
		ctx.left.Store(polls)
		_, _, err := m.Match(ctx, fresh.Left, fresh.Right)
		got := m.IndexTotals()
		if got.Probed != got.SizeSkipped+got.CountSkipped+got.Verified {
			t.Fatalf("budget %d: funnel leak in %+v", polls, got)
		}
		if err == nil {
			if got != want {
				t.Fatalf("completed call: IndexTotals = %+v, want %+v", got, want)
			}
			break
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("budget %d: err = %v, want context.Canceled", polls, err)
		}
		switch {
		case got == blocking.IndexStats{}:
		case got == want:
			generated++
		case got.Builds == 1 && got.Postings == want.Postings && got.Kept <= want.Kept:
			enumerating++
		default:
			t.Fatalf("budget %d: IndexTotals = %+v fits no exit (whole index %+v)", polls, got, want)
		}
	}
	if enumerating == 0 || generated == 0 {
		t.Errorf("cancelled in Candidates %d times and after Generate %d times; want both", enumerating, generated)
	}
}

func TestMatcherBoolFeaturesWithRules(t *testing.T) {
	d, err := dataset.Load("dblp-acm", 0.03, 33)
	if err != nil {
		t.Fatal(err)
	}
	pool := core.NewBoolPool(d)
	ext := feature.NewBoolExtractor(d.Left.Schema)
	model := rules.NewModel(ext)
	core.Run(pool, model, core.LFPLFN{}, oracle.NewPerfect(d), core.Config{Seed: 33})
	if len(model.Rules()) == 0 {
		t.Skip("no rules learned at this scale")
	}
	fresh, err := dataset.Load("dblp-acm", 0.03, 99)
	if err != nil {
		t.Fatal(err)
	}
	m := &Matcher{Learner: model, BlockThreshold: fresh.BlockThreshold, Features: BoolFeatures}
	pairs, candidates, err := m.Match(context.Background(), fresh.Left, fresh.Right)
	if err != nil {
		t.Fatal(err)
	}
	if candidates == 0 {
		t.Fatal("no candidates")
	}
	if len(pairs) == 0 {
		t.Error("rule matcher predicted no matches on fresh clean data")
	}
	// Spot-check precision against fresh truth.
	truthByID := map[[2]string]bool{}
	res, err := blocking.Generate(context.Background(),
		blocking.NewCandidateIndex(fresh, blocking.IndexOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	for _, pk := range res.Pairs {
		truthByID[[2]string{fresh.Left.Rows[pk.L].ID, fresh.Right.Rows[pk.R].ID}] = fresh.IsMatch(pk)
	}
	correct := 0
	for _, p := range pairs {
		if truthByID[ids(p)] {
			correct++
		}
	}
	if prec := float64(correct) / float64(len(pairs)); prec < 0.6 {
		t.Errorf("rule matcher precision %.3f on fresh data, want >= 0.6", prec)
	}
}

func TestScoreSurfaces(t *testing.T) {
	X := []feature.Vector{{1, 0}, {0.9, 0.1}, {0, 1}, {0.1, 0.9}}
	y := []bool{true, true, false, false}

	svm := linear.NewSVM(3)
	svm.Train(X, y)
	f := tree.NewForest(5, 3)
	f.Train(X, y)

	for _, l := range []core.Learner{svm, f} {
		s, err := ScoreAll(context.Background(), l, []feature.Vector{{1, 0}, {0, 1}})
		if err != nil {
			t.Fatal(err)
		}
		sPos, sNeg := s[0], s[1]
		if sPos < 0 || sPos > 1 || sNeg < 0 || sNeg > 1 {
			t.Errorf("%s: scores %f/%f outside [0,1]", l.Name(), sPos, sNeg)
		}
		if sPos <= sNeg {
			t.Errorf("%s: positive example scored %f <= negative %f", l.Name(), sPos, sNeg)
		}
	}
}

func TestScoreAllCancellation(t *testing.T) {
	svm := linear.NewSVM(3)
	svm.Train([]feature.Vector{{1}, {0}}, []bool{true, false})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ScoreAll(ctx, svm, []feature.Vector{{1}}); err != context.Canceled {
		t.Errorf("ScoreAll on a cancelled context returned %v", err)
	}
}
