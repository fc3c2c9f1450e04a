package model

import (
	"bytes"
	"context"
	"math/rand"
	"regexp"
	"testing"

	"github.com/alem/alem/internal/core"
	"github.com/alem/alem/internal/feature"
	"github.com/alem/alem/internal/linear"
	"github.com/alem/alem/internal/match"
	"github.com/alem/alem/internal/neural"
	"github.com/alem/alem/internal/tree"
)

// artifactBytes builds a well-formed artifact to seed the fuzzer: l
// trained at the dimensionality the one-attribute float pipeline
// implies, so mutations explore the space near real files instead of
// bouncing off the envelope checks immediately.
func artifactBytes(tb testing.TB, l core.Learner) []byte {
	tb.Helper()
	schema := []string{"name"}
	dim := feature.NewExtractor(schema).Dim()
	r := rand.New(rand.NewSource(1))
	X := make([]feature.Vector, 40)
	y := make([]bool, 40)
	for i := range X {
		v := make(feature.Vector, dim)
		for j := range v {
			v[j] = r.Float64()
		}
		X[i] = v
		y[i] = i%2 == 0
	}
	l.Train(X, y)
	var buf bytes.Buffer
	if err := Save(&buf, l, Meta{Schema: schema}); err != nil {
		tb.Fatalf("building seed artifact: %v", err)
	}
	return buf.Bytes()
}

// FuzzLoadModel asserts the artifact loader's safety contract: arbitrary
// bytes — truncated files, bit-flipped envelopes, hostile JSON — must
// come back as an error, never a panic or a successfully "loaded" model
// that violates its own invariants. Artifacts are the trust boundary
// between training and serving (almserve loads whatever file it is
// pointed at), so the loader is the right place to be paranoid. A
// loaded learner must also score a vector of the artifact's width.
func FuzzLoadModel(f *testing.F) {
	valid := artifactBytes(f, linear.NewSVM(1))
	f.Add(valid)
	net := neural.NewNet(4, 1)
	net.Epochs = 2
	f.Add(artifactBytes(f, net))
	f.Add(artifactBytes(f, tree.NewForest(3, 1)))
	f.Add([]byte("{}"))
	f.Add([]byte(`{"format":"alem-model","version":1}`))
	f.Add([]byte(`{"format":"alem-model","version":1,"kind":"svm","meta":{"schema":["a"]}}`))
	if len(valid) > 10 {
		f.Add(valid[:len(valid)/2]) // truncated file
		mutated := bytes.Replace(valid, []byte(`"svm"`), []byte(`"rules"`), 1)
		f.Add(mutated) // kind/payload mismatch
		// An empty weight list: Dim 0 skips the dimension check.
		f.Add(regexp.MustCompile(`"weights":\s*\[[^\]]*\]`).ReplaceAll(valid, []byte(`"weights":[]`)))
		// Hyper-parameters that cannot retrain: lambda 0 (step 1/0) and
		// no epoch.
		f.Add(regexp.MustCompile(`"lambda":[^,]*`).ReplaceAll(valid, []byte(`"lambda":0`)))
		f.Add(regexp.MustCompile(`"epochs":[^,]*`).ReplaceAll(valid, []byte(`"epochs":0`)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		art, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A load that claims success must hand back a usable artifact.
		if art.Learner == nil {
			t.Fatal("Load succeeded with a nil learner")
		}
		if art.Dim <= 0 {
			t.Fatalf("Load succeeded with non-positive dim %d", art.Dim)
		}
		if len(art.Meta.Schema) == 0 {
			t.Fatal("Load succeeded with an empty schema")
		}
		if _, err := match.ScoreAll(context.Background(), art.Learner, []feature.Vector{make(feature.Vector, art.Dim)}); err != nil {
			t.Fatal(err)
		}
		// A loaded SVM must also retrain: a positive lambda (the step is
		// 1/lambda) and at least one epoch.
		if s, ok := art.Learner.(*linear.SVM); ok && (!(s.Lambda > 0) || s.Epochs < 1) {
			t.Fatalf("Load accepted an SVM with lambda %v, epochs %d", s.Lambda, s.Epochs)
		}
	})
}
