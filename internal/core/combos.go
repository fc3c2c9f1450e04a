package core

import (
	"errors"

	"github.com/alem/alem/internal/bayes"
	"github.com/alem/alem/internal/feature"
	"github.com/alem/alem/internal/linear"
	"github.com/alem/alem/internal/neural"
	"github.com/alem/alem/internal/rules"
	"github.com/alem/alem/internal/tree"
)

// Combo is one cell of the paper's Fig. 1b "4D view of unified active
// learning": a learner family crossed with an example selector, with the
// compatibility rule that the Fig. 2 class hierarchy encodes.
type Combo struct {
	LearnerFamily string
	SelectorName  string
	Compatible    bool
	// Reason explains an incompatibility ("needs a MarginLearner …").
	Reason string
	// PaperEvaluated marks combinations the paper's §6 actually ran.
	PaperEvaluated bool
}

// learnerProbe pairs a family name with a representative instance used
// purely for interface checks.
type learnerProbe struct {
	family string
	mk     func() Learner
}

func allLearnerProbes() []learnerProbe {
	return []learnerProbe{
		{"linear (SVM)", func() Learner { return linear.NewSVM(0) }},
		{"non-convex non-linear (NN)", func() Learner { return neural.NewNet(8, 0) }},
		{"tree-based (random forest)", func() Learner { return tree.NewForest(5, 0) }},
		{"rule-based (monotone DNF)", func() Learner {
			return rules.NewModel(feature.NewBoolExtractor([]string{"a"}))
		}},
		{"naive Bayes (extension)", func() Learner { return bayes.New() }},
	}
}

// selectorProbe pairs a Fig. 1b selector column with the selector whose
// ValidateSelection decides its cells.
type selectorProbe struct {
	name      string
	sel       Selector
	evaluated func(family string) bool
}

func allSelectorProbes() []selectorProbe {
	return []selectorProbe{
		{"QBC (learner-agnostic)", QBC{}, func(f string) bool {
			return f != "naive Bayes (extension)"
		}},
		{"margin", Margin{}, func(f string) bool {
			return f == "linear (SVM)" || f == "non-convex non-linear (NN)"
		}},
		{"margin+blocking (§5.1)", BlockedMargin{}, func(f string) bool { return f == "linear (SVM)" }},
		{"learner-aware QBC", ForestQBC{}, func(f string) bool {
			return f == "tree-based (random forest)"
		}},
		{"LFP/LFN", LFPLFN{}, func(f string) bool {
			return f == "rule-based (monotone DNF)"
		}},
		{"random (supervised)", Random{}, func(f string) bool {
			return f == "tree-based (random forest)"
		}},
		{"IWAL (extension)", IWAL{}, func(string) bool { return false }},
	}
}

// Combinations enumerates the full learner × selector grid with
// compatibility decided by ValidateSelection, the check session
// construction runs — the programmatic Fig. 1b/Fig. 2.
func Combinations() []Combo {
	var out []Combo
	for _, lp := range allLearnerProbes() {
		l := lp.mk()
		for _, sp := range allSelectorProbes() {
			err := ValidateSelection(l, sp.sel)
			reason := ""
			var ie *IncompatibleError
			if errors.As(err, &ie) {
				reason = "needs " + ie.Needs
			}
			out = append(out, Combo{
				LearnerFamily:  lp.family,
				SelectorName:   sp.name,
				Compatible:     err == nil,
				Reason:         reason,
				PaperEvaluated: err == nil && sp.evaluated(lp.family),
			})
		}
	}
	return out
}
