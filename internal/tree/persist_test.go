package tree

import (
	"bytes"
	"strings"
	"testing"

	"github.com/alem/alem/internal/feature"
)

func TestForestSaveLoadRoundTrip(t *testing.T) {
	X, y := xorData(300, 51)
	f := NewForest(7, 51)
	f.Train(X, y)
	var buf bytes.Buffer
	if err := f.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Trees()) != 7 {
		t.Fatalf("loaded %d trees, want 7", len(got.Trees()))
	}
	for _, x := range X {
		if got.Predict(x) != f.Predict(x) {
			t.Fatalf("prediction differs after round trip on %v", x)
		}
		gp, gt := got.Votes(x)
		op, ot := f.Votes(x)
		if gp != op || gt != ot {
			t.Fatalf("votes differ after round trip: %d/%d vs %d/%d", gp, gt, op, ot)
		}
	}
	if got.Depth() != f.Depth() {
		t.Errorf("depth %d != original %d", got.Depth(), f.Depth())
	}
}

func TestForestLoadRejectsBrokenTree(t *testing.T) {
	// Internal node missing its right child.
	broken := `{"num_trees":1,"roots":[{"Leaf":false,"Feature":0,"Threshold":0.5,"Left":{"Leaf":true,"Label":true},"Right":null}]}`
	if _, err := LoadJSON(strings.NewReader(broken)); err == nil {
		t.Error("LoadJSON accepted a tree with a missing child")
	}
	if _, err := LoadJSON(strings.NewReader("{")); err == nil {
		t.Error("LoadJSON accepted truncated JSON")
	}
	if _, err := LoadJSON(strings.NewReader(`{"num_trees":1,"roots":[null]}`)); err == nil {
		t.Error("LoadJSON accepted a nil root")
	}
	// A negative split feature: MinDim reads it as 0, so no dim check
	// caught it, and Predict indexed x[-1].
	negative := `{"num_trees":1,"roots":[{"Leaf":false,"Feature":-1,"Threshold":0.5,"Left":{"Leaf":true,"Label":true},"Right":{"Leaf":true}}]}`
	if _, err := LoadJSON(strings.NewReader(negative)); err == nil {
		t.Error("LoadJSON accepted a negative split feature")
	}
}

func TestForestSaveEmpty(t *testing.T) {
	var buf bytes.Buffer
	f := NewForest(3, 1)
	if err := f.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Predict(feature.Vector{1}) {
		t.Error("empty forest round trip should predict negative")
	}
}
