// Custom learner: the framework's plug-and-play extension point as a
// runnable example (see TUTORIAL.md §1). Defines a deliberately simple
// "mean-similarity threshold" classifier inline, gives it a margin, and
// runs it under margin selection and QBC without touching the framework.
package main

import (
	"fmt"
	"log"
	"math"

	"github.com/alem/alem"
)

// thresholdLearner predicts "match" when the mean of all similarity
// features exceeds a threshold fitted on the labeled data. It is weaker
// than any of the paper's four families — which is exactly the point:
// anything with Train/Predict slots in.
type thresholdLearner struct {
	threshold float64
	trained   bool
}

func (t *thresholdLearner) Name() string { return "mean-threshold" }

func mean(x alem.FeatureVector) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Train picks the threshold midway between the class means.
func (t *thresholdLearner) Train(X []alem.FeatureVector, y []bool) {
	var posSum, negSum float64
	var pos, neg int
	for i, x := range X {
		if y[i] {
			posSum += mean(x)
			pos++
		} else {
			negSum += mean(x)
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		t.trained = false
		return
	}
	t.threshold = (posSum/float64(pos) + negSum/float64(neg)) / 2
	t.trained = true
}

func (t *thresholdLearner) Predict(x alem.FeatureVector) bool {
	return t.trained && mean(x) > t.threshold
}

// Margin makes the learner compatible with margin-based selection: the
// distance of the mean similarity from the threshold.
func (t *thresholdLearner) Margin(x alem.FeatureVector) float64 {
	if !t.trained {
		return 0
	}
	return math.Abs(mean(x) - t.threshold)
}

func main() {
	d, err := alem.LoadDataset("dblp-acm", 0.1, 8)
	if err != nil {
		log.Fatal(err)
	}
	pool := alem.NewPool(d)
	fmt.Printf("dblp-acm: %d candidate pairs\n\n", pool.Len())

	// The custom learner under three selectors — zero framework changes.
	factory := func(int64) alem.Learner { return &thresholdLearner{} }
	for _, v := range []struct {
		name string
		sel  alem.Selector
	}{
		{"margin", alem.MarginSelector{}},
		{"QBC(10)", alem.QBC{B: 10, Factory: factory}},
		{"random", alem.RandomSelector{}},
	} {
		res := alem.Run(pool, &thresholdLearner{}, v.sel, alem.NewPerfectOracle(d),
			alem.Config{Seed: 8, MaxLabels: 300})
		fmt.Printf("%-8s best F1 %.3f  (labels to converge %d)\n",
			v.name, res.Curve.BestF1(), res.Curve.ConvergenceLabels(0.01))
	}
	fmt.Println("\na ten-line learner composes with every learner-agnostic selector;")
	fmt.Println("adding Margin() unlocked the learner-aware ones (TUTORIAL.md §1).")
}
