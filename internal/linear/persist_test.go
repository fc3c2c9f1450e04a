package linear

import (
	"bytes"
	"strings"
	"testing"

	"github.com/alem/alem/internal/feature"
)

func TestSVMSaveLoadRoundTrip(t *testing.T) {
	X, y := separableData(200, 41)
	s := NewSVM(41)
	s.Train(X, y)
	var buf bytes.Buffer
	if err := s.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range X {
		if got.Predict(x) != s.Predict(x) {
			t.Fatalf("prediction differs after round trip on %v", x)
		}
		if got.Margin(x) != s.Margin(x) {
			t.Fatalf("margin differs after round trip on %v", x)
		}
	}
	if got.Lambda != s.Lambda || got.Epochs != s.Epochs {
		t.Error("hyper-parameters lost in round trip")
	}
}

func TestSVMLoadRejectsGarbage(t *testing.T) {
	if _, err := LoadJSON(strings.NewReader("not json")); err == nil {
		t.Error("LoadJSON accepted garbage")
	}
}

// An empty weight list loads as an untrained model: Dim reports 0, so
// no dimension check guards DecisionValue, which must not index it.
func TestSVMLoadEmptyWeightsScoresZero(t *testing.T) {
	s, err := LoadJSON(strings.NewReader(`{"lambda":0.0001,"epochs":60,"weights":[],"bias":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if d := s.DecisionValue(feature.Vector{0, 0}); d != 0 {
		t.Errorf("DecisionValue = %v, want 0 for an empty weight list", d)
	}
}

// A lambda of 0 makes every step 1/0 and retrains to NaN weights; a
// negative one diverges; zero epochs leaves w at 0. The loader must
// refuse each, naming the field.
func TestSVMLoadRejectsBadHyperParameters(t *testing.T) {
	for _, tc := range []struct{ body, field string }{
		{`{"lambda":0,"epochs":60,"weights":[1,2],"bias":0.5}`, "lambda"},
		{`{"lambda":-0.0001,"epochs":60,"weights":[1,2],"bias":0.5}`, "lambda"},
		{`{"epochs":60,"weights":[1,2],"bias":0.5}`, "lambda"},
		{`{"lambda":0.0001,"epochs":0,"weights":[1,2],"bias":0.5}`, "epochs"},
		{`{"lambda":0.0001,"epochs":-3,"weights":[1,2],"bias":0.5}`, "epochs"},
	} {
		_, err := LoadJSON(strings.NewReader(tc.body))
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("LoadJSON(%s) error = %v, want one naming %q", tc.body, err, tc.field)
		}
	}
	// One epoch is enough.
	if _, err := LoadJSON(strings.NewReader(`{"lambda":0.0001,"epochs":1,"weights":[1],"bias":0}`)); err != nil {
		t.Errorf("LoadJSON rejected epochs 1: %v", err)
	}
}

func TestSVMLoadedModelRetrains(t *testing.T) {
	X, y := separableData(100, 42)
	s := NewSVM(42)
	s.Train(X, y)
	var buf bytes.Buffer
	if err := s.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The loaded model must be fully functional, including retraining.
	flipped := make([]bool, len(y))
	for i := range y {
		flipped[i] = !y[i]
	}
	got.Train(X, flipped)
	ok := 0
	for i, x := range X {
		if got.Predict(x) == flipped[i] {
			ok++
		}
	}
	if float64(ok)/float64(len(X)) < 0.95 {
		t.Error("loaded model failed to retrain")
	}
}

func TestSVMSaveUntrained(t *testing.T) {
	var buf bytes.Buffer
	s := NewSVM(1)
	if err := s.SaveJSON(&buf); err != nil {
		t.Fatalf("saving an untrained SVM should produce an empty model, got %v", err)
	}
	got, err := LoadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Predict(feature.Vector{1, 2}) {
		t.Error("untrained round trip should predict negative")
	}
}
