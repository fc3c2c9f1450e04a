package alem_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/alem/alem"
)

// TestFacadeEndToEnd exercises the public API exactly the way the README
// quickstart does.
func TestFacadeEndToEnd(t *testing.T) {
	d, err := alem.LoadDataset("beer", 1.0, 42)
	if err != nil {
		t.Fatal(err)
	}
	pool := alem.NewPool(d)
	if pool.Len() == 0 {
		t.Fatal("empty pool")
	}
	res := alem.Run(pool, alem.NewRandomForest(20, 1), alem.ForestQBC{},
		alem.NewPerfectOracle(d), alem.Config{Seed: 1, TargetF1: 0.99})
	if res.Curve.BestF1() < 0.9 {
		t.Errorf("quickstart best F1 = %.3f, want >= 0.9", res.Curve.BestF1())
	}
}

func TestFacadeProfilesAndMetrics(t *testing.T) {
	if n := len(alem.DatasetProfiles()); n != 10 {
		t.Errorf("profiles = %d, want 10", n)
	}
	if n := len(alem.SimilarityMetrics()); n != 21 {
		t.Errorf("metrics = %d, want 21", n)
	}
	if n := len(alem.ExperimentIDs()); n != 15 {
		t.Errorf("experiments = %d, want 15 (2 tables + 13 figures)", n)
	}
}

func TestFacadeRunExperiment(t *testing.T) {
	var buf bytes.Buffer
	opts := alem.ExperimentOptions{Scale: 0.02, MaxLabels: 60, Runs: 1, Seed: 3}
	rep, err := alem.RunExperiment("table1", opts, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "table1" {
		t.Errorf("report id = %q", rep.ID)
	}
	if !strings.Contains(buf.String(), "abt-buy") {
		t.Error("report output missing dataset rows")
	}
	if _, err := alem.RunExperiment("nope", opts, nil); err == nil {
		t.Error("RunExperiment accepted unknown id")
	}
}

func TestFacadeEnsembleAndInterp(t *testing.T) {
	d, err := alem.LoadDataset("dblp-acm", 0.05, 9)
	if err != nil {
		t.Fatal(err)
	}
	pool := alem.NewPool(d)
	cfg := alem.EnsembleConfig{
		Config:   alem.Config{Seed: 9, MaxLabels: 200},
		Factory:  alem.SVMFactory,
		Selector: alem.MarginSelector{},
	}
	ens := alem.RunEnsemble(pool, alem.NewPerfectOracle(d), cfg)
	if ens.Curve.BestF1() <= 0 {
		t.Error("ensemble produced no useful model")
	}

	// The same run checkpointed after three steps and resumed on a fresh
	// ensemble session ends on the uninterrupted curve.
	newEnsemble := func() *alem.Session {
		s, err := alem.NewEnsembleSession(pool, alem.BatchOfOracle(alem.NewPerfectOracle(d)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	first := newEnsemble()
	for i := 0; i < 3; i++ {
		if done, err := first.Step(context.Background()); done || err != nil {
			t.Fatalf("step %d: done=%v err=%v", i, done, err)
		}
	}
	var snap bytes.Buffer
	if err := first.Snapshot().Encode(&snap); err != nil {
		t.Fatal(err)
	}
	sn, err := alem.ReadSessionSnapshot(&snap)
	if err != nil {
		t.Fatal(err)
	}
	resumed := newEnsemble()
	if err := resumed.Resume(sn, nil); err != nil {
		t.Fatal(err)
	}
	res, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve) != len(ens.Curve) {
		t.Fatalf("resumed curve has %d points, uninterrupted %d", len(res.Curve), len(ens.Curve))
	}
	for i := range res.Curve {
		if res.Curve[i].Labels != ens.Curve[i].Labels || res.Curve[i].F1 != ens.Curve[i].F1 {
			t.Fatalf("curve point %d: resumed %+v, uninterrupted %+v", i, res.Curve[i], ens.Curve[i])
		}
	}

	forest := alem.NewRandomForest(5, 9)
	alem.Run(pool, forest, alem.ForestQBC{}, alem.NewPerfectOracle(d),
		alem.Config{Seed: 9, MaxLabels: 100})
	if alem.ForestAtoms(forest) == 0 {
		t.Error("trained forest has zero DNF atoms")
	}
	if len(alem.ForestToDNF(forest)) == 0 {
		t.Error("trained forest converted to empty DNF")
	}
}

func TestFacadeBoolPipeline(t *testing.T) {
	d, err := alem.LoadDataset("dblp-acm", 0.03, 4)
	if err != nil {
		t.Fatal(err)
	}
	pool := alem.NewBoolPool(d)
	ext := alem.NewBoolFeatureExtractor(d.Left.Schema)
	model := alem.NewRuleModel(ext)
	res := alem.Run(pool, model, alem.LFPLFN{}, alem.NewPerfectOracle(d), alem.Config{Seed: 4})
	if res.Curve.BestF1() < 0.5 {
		t.Errorf("rules best F1 = %.3f, want >= 0.5 on clean data", res.Curve.BestF1())
	}
	if model.NumAtoms() == 0 {
		t.Error("no rules learned")
	}
}

func TestFacadePersistenceAndMatcher(t *testing.T) {
	d, err := alem.LoadDataset("beer", 1.0, 55)
	if err != nil {
		t.Fatal(err)
	}
	pool := alem.NewPool(d)
	forest := alem.NewRandomForest(10, 55)
	alem.Run(pool, forest, alem.ForestQBC{}, alem.NewPerfectOracle(d),
		alem.Config{Seed: 55, TargetF1: 0.99})

	// Unified artifact: one file carries the forest plus its pipeline.
	var buf bytes.Buffer
	if err := alem.SaveModel(&buf, forest, alem.ModelMeta{
		Schema:         d.Left.Schema,
		BlockThreshold: d.BlockThreshold,
		Dataset:        "beer",
	}); err != nil {
		t.Fatal(err)
	}
	art, err := alem.LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if art.Kind != alem.KindRandomForest || art.Meta.Features != alem.FloatFeatures {
		t.Fatalf("artifact kind=%s features=%s", art.Kind, art.Meta.Features)
	}
	fresh, err := alem.LoadDataset("beer", 1.0, 56)
	if err != nil {
		t.Fatal(err)
	}
	pairs, candidates, err := art.Matcher().Match(context.Background(), fresh.Left, fresh.Right)
	if err != nil {
		t.Fatal(err)
	}
	if candidates == 0 || len(pairs) == 0 {
		t.Fatalf("deployed model matched %d of %d candidates", len(pairs), candidates)
	}
	for _, p := range pairs {
		if p.Confidence < 0 || p.Confidence > 1 {
			t.Fatalf("pair %s/%s confidence %v outside [0,1]", p.LeftID, p.RightID, p.Confidence)
		}
	}

	// The serve facade mounts the same artifact over HTTP.
	srv := alem.NewMatchServer(art, alem.MatchServerConfig{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	// Legacy bare-learner persistence still round-trips.
	buf.Reset()
	if err := forest.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := alem.LoadRandomForest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range pool.X {
		if loaded.Predict(x) != forest.Predict(x) {
			t.Fatalf("legacy forest round trip changed the prediction of pair %d", i)
		}
	}
}

func TestFacadeAblationIDs(t *testing.T) {
	if n := len(alem.AblationIDs()); n != 18 {
		t.Errorf("ablations = %d, want 18", n)
	}
	for _, id := range alem.AblationIDs() {
		if !strings.HasPrefix(id, "ablation-") && id != "summary" {
			t.Errorf("unexpected ablation id %q", id)
		}
	}
}

func TestFacadeWrapperSmoke(t *testing.T) {
	d, err := alem.LoadDataset("beer", 1.0, 66)
	if err != nil {
		t.Fatal(err)
	}
	// Blocking variants.
	idx := alem.NewCandidateIndex(d, alem.CandidateIndexOptions{Threshold: 0.3})
	if res, err := alem.GenerateCandidates(context.Background(), idx); err != nil || len(res.Pairs) == 0 {
		t.Errorf("candidate index found nothing at 0.3 (err %v)", err)
	}
	if res := alem.SortedNeighborhoodBlock(d, "beer_name", 8); len(res.Pairs) == 0 {
		t.Error("SortedNeighborhoodBlock found nothing")
	}
	// Corpus-aware features.
	c := alem.CorpusOf(d)
	if c.NumDocs() != len(d.Left.Rows)+len(d.Right.Rows) {
		t.Errorf("corpus docs = %d", c.NumDocs())
	}
	if len(alem.ExtendedMetrics(c)) != 4 {
		t.Error("ExtendedMetrics != 4")
	}
	ext := alem.NewExtendedExtractor(d.Left.Schema, c)
	if ext.Dim() != len(d.Left.Schema)*25 {
		t.Errorf("extended dim = %d", ext.Dim())
	}
	if pool := alem.NewExtendedPool(d); len(pool.X[0]) != ext.Dim() {
		t.Error("extended pool dim mismatch")
	}
	if c2 := alem.NewCorpus([]string{"a b", "b c"}); c2.NumDocs() != 2 {
		t.Error("NewCorpus")
	}
	// Diagnostics.
	if rep := alem.Diagnose(d); rep.PostBlockingPairs == 0 || rep.Separation() <= 0 {
		t.Error("Diagnose produced an empty or non-separating report")
	}
	// Evaluation + oracle wrappers.
	conf := alem.EvaluatePredictions([]bool{true, false}, []bool{true, true})
	if conf.TP != 1 || conf.FN != 1 {
		t.Errorf("EvaluatePredictions = %+v", conf)
	}
	mv := alem.NewMajorityVoteOracle(alem.NewNoisyOracle(d, 0.3, 1), 3)
	mv.Label(alem.PairKey{L: 0, R: 0})
	if mv.Queries() != 3 {
		t.Errorf("majority-vote queries = %d", mv.Queries())
	}
	// Learner persistence wrappers.
	var buf bytes.Buffer
	svm := alem.NewSVM(1)
	svm.Train([]alem.FeatureVector{{0.9}, {0.1}}, []bool{true, false})
	if err := svm.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := alem.LoadSVM(&buf); err != nil {
		t.Error(err)
	}
	nn := alem.NeuralNetFactory(4)(2)
	nn.Train([]alem.FeatureVector{{0.9}, {0.1}}, []bool{true, false})
	buf.Reset()
	if err := nn.(*alem.NeuralNet).SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := alem.LoadNeuralNet(&buf); err != nil {
		t.Error(err)
	}
	bext := alem.NewBoolFeatureExtractor(d.Left.Schema)
	rm := alem.NewRuleModel(bext)
	buf.Reset()
	if err := rm.SaveJSON(&buf, bext.Dim()); err != nil {
		t.Fatal(err)
	}
	if _, err := alem.LoadRuleModel(&buf, bext); err != nil {
		t.Error(err)
	}
}
