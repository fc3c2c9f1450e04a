package main

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTrainResumeNeedsCheckpoint pins that -resume without -checkpoint
// is refused before a dataset is loaded or a label bought, with an error
// naming -checkpoint, instead of silently training a fresh model.
func TestTrainResumeNeedsCheckpoint(t *testing.T) {
	model := filepath.Join(t.TempDir(), "model.json")
	err := train(trainOpts{
		dataset: "beer", scale: 0.2, seed: 1, modelPath: model, trees: 5,
		maxLabels: 40, resume: true, selector: "forest-qbc", learner: "forest",
	})
	if err == nil || !strings.Contains(err.Error(), "-checkpoint") {
		t.Fatalf("train with -resume and no -checkpoint = %v, want an error naming -checkpoint", err)
	}
	if _, err := os.Stat(model); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("a refused run wrote its model file (stat: %v)", err)
	}
}
