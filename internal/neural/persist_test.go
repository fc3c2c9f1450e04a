package neural

import (
	"bytes"
	"strings"
	"testing"
)

func TestNetSaveLoadRoundTrip(t *testing.T) {
	X, y := xorData(200, 61)
	n := NewNet(8, 61)
	n.Train(X, y)
	var buf bytes.Buffer
	if err := n.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range X {
		if got.Margin(x) != n.Margin(x) {
			t.Fatalf("margin differs after round trip: %v vs %v", got.Margin(x), n.Margin(x))
		}
		if got.Predict(x) != n.Predict(x) {
			t.Fatal("prediction differs after round trip")
		}
	}
}

func TestNetSaveUntrainedFails(t *testing.T) {
	var buf bytes.Buffer
	if err := NewNet(8, 1).SaveJSON(&buf); err == nil {
		t.Error("SaveJSON accepted an untrained network")
	}
}

func TestNetLoadRejectsInconsistent(t *testing.T) {
	for _, bad := range []string{
		`{"hidden":4,"w1":[[1]],"w2":[1]}`,
		// A short W1 row, and missing per-unit vectors: both loaded
		// cleanly once and then panicked in Margin.
		`{"hidden":2,"dim":3,"w1":[[1,2,3],[1]],"b1":[0,0],"gamma":[1,1],"beta":[0,0],"run_mean":[0,0],"run_var":[1,1],"w2":[1,1]}`,
		`{"hidden":2,"dim":1,"w1":[[1],[1]],"w2":[1,1]}`,
		`{"hidden":0,"dim":1,"w1":[],"b1":[],"gamma":[],"beta":[],"run_mean":[],"run_var":[],"w2":[]}`,
		`{"hidden":1,"dim":0,"w1":[[]],"b1":[0],"gamma":[1],"beta":[0],"run_mean":[0],"run_var":[1],"w2":[1]}`,
		`{"hidden":1,"dim":1,"w1":[[1]],"b1":[0],"gamma":[1],"beta":[0],"run_mean":[0],"run_var":[1,1],"w2":[1]}`,
	} {
		if _, err := LoadJSON(strings.NewReader(bad)); err == nil {
			t.Errorf("LoadJSON accepted inconsistent layer sizes: %s", bad)
		}
	}
	if _, err := LoadJSON(strings.NewReader("garbage")); err == nil {
		t.Error("LoadJSON accepted garbage")
	}
}
