package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/alem/alem/internal/feature"
	"github.com/alem/alem/internal/linear"
	"github.com/alem/alem/internal/rules"
	"github.com/alem/alem/internal/tree"
)

// composable is how the registry-completeness tests reach a selector's
// Scorer×Picker decomposition: every exported paper selector exposes
// Composition(), and the recombinations ARE compositions.
type composable interface {
	Composition() ComposedSelector
}

func compositionOf(t *testing.T, name string, sel Selector) ComposedSelector {
	t.Helper()
	if comp, ok := sel.(ComposedSelector); ok {
		return comp
	}
	c, ok := sel.(composable)
	if !ok {
		t.Fatalf("%s: selector %T is neither a ComposedSelector nor exposes Composition()", name, sel)
	}
	return c.Composition()
}

// TestRegistryCoversExportedSelectors pins the registry as the single
// construction path: every exported paper selector is registered under
// its own Name(), and the registry entry round-trips that name.
func TestRegistryCoversExportedSelectors(t *testing.T) {
	exported := []Selector{
		Random{}, QBC{}, Margin{}, BlockedMargin{}, ForestQBC{},
		BlockedForestQBC{}, LFPLFN{}, IWAL{},
	}
	for _, sel := range exported {
		spec, ok := LookupSelector(sel.Name())
		if !ok {
			t.Errorf("exported selector %q is not registered", sel.Name())
			continue
		}
		if got := spec.New(SelectorParams{}).Name(); got != sel.Name() {
			t.Errorf("registry entry %q constructs a selector named %q", spec.Name, got)
		}
	}
}

// TestRegistryCoversExportedPieces asserts every exported Scorer and
// Picker is reachable through at least one registry entry's composition —
// a new piece that nobody can select from the CLI is a registration bug.
func TestRegistryCoversExportedPieces(t *testing.T) {
	pickers := map[string]bool{}
	scorers := map[string]bool{}
	for _, spec := range Selectors() {
		comp := compositionOf(t, spec.Name, spec.New(SelectorParams{}))
		scorers[comp.Scorer.Name()] = true
		pickers[comp.Picker.Name()] = true
	}
	for _, p := range []Picker{
		TopPicker{}, ShuffledTopPicker{}, RandomPicker{},
		AcceptanceSamplePicker{}, KCenterPicker{}, ScoredClusterPicker{},
	} {
		if !pickers[p.Name()] {
			t.Errorf("picker %q is not reachable from any registry entry", p.Name())
		}
	}
	for _, s := range []Scorer{
		UniformScorer{}, QBCScorer{}, MarginScorer{}, BlockedMarginScorer{},
		VoteScorer{}, BlockedVoteScorer{}, LFPLFNScorer{}, AmbiguityScorer{},
	} {
		if !scorers[s.Name()] {
			t.Errorf("scorer %q is not reachable from any registry entry", s.Name())
		}
	}
}

// TestRegistryEntriesRunOneIteration constructs every registered
// strategy, pairs it with a learner satisfying its Needs declaration,
// and drives one full session iteration (seed → train → evaluate →
// select → label); a learner lacking a declared Need must be refused at
// construction. A registry entry that validates but cannot complete a
// step — or whose Needs string no longer matches reality — fails here.
func TestRegistryEntriesRunOneIteration(t *testing.T) {
	const seed = 29
	for _, spec := range Selectors() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			var (
				pool    *Pool
				learner Learner
				lacking Learner // nil when the entry needs nothing
			)
			switch spec.Needs {
			case "VoteLearner":
				pool = syntheticPool(300, seed)
				learner = tree.NewForest(5, seed)
				lacking = linear.NewSVM(seed)
			case "rules.Model":
				X, truth := boolVectors(300, seed)
				pool = NewPoolFromVectors(X, truth)
				learner = rules.NewModel(feature.NewBoolExtractor([]string{"a", "b", "c"}))
				lacking = linear.NewSVM(seed)
			case "MarginLearner", "WeightedLinear":
				pool = syntheticPool(300, seed)
				learner = linear.NewSVM(seed)
				lacking = tree.NewForest(5, seed)
			default:
				pool = syntheticPool(300, seed)
				learner = linear.NewSVM(seed)
			}
			sel, err := NewSelector(spec.Name, SelectorParams{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if err := ValidateSelection(learner, sel); err != nil {
				t.Fatalf("registry's own Needs pairing rejected: %v", err)
			}
			if lacking != nil {
				_, err := NewSession(pool, lacking, sel, poolOracle(pool), Config{Seed: seed, MaxLabels: 60})
				if !errors.Is(err, ErrIncompatibleSelector) {
					t.Errorf("%s lacks %s, yet construction returned %v", lacking.Name(), spec.Needs, err)
				}
			}
			s := mustSession(t, pool, learner, sel, Config{Seed: seed, MaxLabels: 60})
			if _, err := s.Step(context.Background()); err != nil {
				t.Fatalf("first iteration: %v", err)
			}
			if len(s.Result().Curve) == 0 {
				t.Fatal("no evaluation point after one Step")
			}
		})
	}
}

// TestNewSelectorUnknownName pins the CLI typo experience: the error
// carries the full registered list so the fix is attached.
func TestNewSelectorUnknownName(t *testing.T) {
	_, err := NewSelector("kcentre-margin", SelectorParams{})
	if err == nil {
		t.Fatal("unknown selector name constructed")
	}
	for _, want := range []string{"kcentre-margin", "kcenter-margin", "lfp-lfn"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestSessionRejectsIncompatiblePair pins construction-time checking:
// composing a selector with a learner its scorer cannot serve (LFP/LFN
// over an SVM, margin or blocked margin over a forest, learner-aware
// QBC over an SVM) fails at session construction with the typed error
// naming the selector — before the seed phase spends any label budget —
// and the compatible pairing passes the same gate.
func TestSessionRejectsIncompatiblePair(t *testing.T) {
	pool := syntheticPool(200, 9)
	for _, tc := range []struct {
		learner Learner
		sel     Selector
	}{
		{linear.NewSVM(9), LFPLFN{}},
		{tree.NewForest(5, 9), Margin{}},
		{linear.NewSVM(9), ForestQBC{}},
		{tree.NewForest(5, 9), BlockedMargin{}},
	} {
		label := tc.learner.Name() + " × " + tc.sel.Name()
		_, err := NewSession(pool, tc.learner, tc.sel, poolOracle(pool), Config{Seed: 9, MaxLabels: 40})
		if err == nil {
			t.Errorf("%s: session constructed", label)
			continue
		}
		if !errors.Is(err, ErrIncompatibleSelector) {
			t.Errorf("%s: err = %v, want errors.Is(ErrIncompatibleSelector)", label, err)
		}
		var ie *IncompatibleError
		if !errors.As(err, &ie) {
			t.Fatalf("%s: err = %T, want *IncompatibleError", label, err)
		}
		if ie.Selector != tc.sel.Name() || ie.Learner != tc.learner.Name() || ie.Needs == "" {
			t.Errorf("%s: error details incomplete: %+v", label, ie)
		}
	}
	if err := ValidateSelection(rules.NewModel(feature.NewBoolExtractor([]string{"a"})), LFPLFN{}); err != nil {
		t.Errorf("rule learner rejected by its own selector: %v", err)
	}
}

// ---- the diversity-aware pickers ----

func pickCtx(seed int64, X []feature.Vector, truth []bool) (*SelectContext, *countingSource) {
	src := newCountingSource(seed)
	return &SelectContext{
		Ctx:  context.Background(),
		Pool: NewPoolFromVectors(X, truth),
		Rand: rand.New(src),
	}, src
}

// TestKCenterPickerSpreadsBatch checks the greedy core-set geometry on a
// handcrafted pool: two tight neighborhoods, and k=2 must take the
// highest-scoring seed plus the FARTHEST point — not the second-best
// score sitting 0.1 away from the seed. Also pins that the picker is
// RNG-free and that an undersized candidate set is returned as-is.
func TestKCenterPickerSpreadsBatch(t *testing.T) {
	X := []feature.Vector{{0, 0}, {0.1, 0}, {5, 5}, {5, 5.1}}
	sctx, src := pickCtx(1, X, []bool{false, false, true, true})
	set := &ScoredSet{Candidates: []int{0, 1, 2, 3}, Scores: []float64{1.0, 0.9, 0.8, 0.7}}
	got := KCenterPicker{}.Pick(sctx, set, 2)
	if want := []int{0, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("k-center batch = %v, want %v (seed + farthest)", got, want)
	}
	if src.n63 != 0 || src.n64 != 0 {
		t.Errorf("k-center drew (%d,%d) from the RNG; it must be RNG-free", src.n63, src.n64)
	}
	if got := (KCenterPicker{}).Pick(sctx, set, 10); !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Errorf("n<=k batch = %v, want the whole candidate set in order", got)
	}
}

// TestScoredClusterPickerCoversClusters: three near-duplicates hold the
// top three scores, one distant point trails. Pure top-k would spend
// both picks on the duplicate cluster; cluster sampling must cover both
// neighborhoods. Same seed ⇒ same batch (the only randomness is the
// serial within-cluster draws).
func TestScoredClusterPickerCoversClusters(t *testing.T) {
	X := []feature.Vector{{0, 0}, {0.05, 0}, {0, 0.05}, {5, 5}}
	truth := []bool{false, false, false, true}
	set := &ScoredSet{Candidates: []int{0, 1, 2, 3}, Scores: []float64{1.0, 0.99, 0.98, 0.5}}

	sctx, _ := pickCtx(7, X, truth)
	got := ScoredClusterPicker{}.Pick(sctx, set, 2)
	if len(got) != 2 {
		t.Fatalf("batch = %v, want 2 picks", got)
	}
	var near, far bool
	for _, i := range got {
		if i == 3 {
			far = true
		} else {
			near = true
		}
	}
	if !near || !far {
		t.Errorf("batch %v does not cover both clusters ({0,1,2} and {3})", got)
	}

	sctx2, _ := pickCtx(7, X, truth)
	if again := (ScoredClusterPicker{}).Pick(sctx2, set, 2); !reflect.DeepEqual(again, got) {
		t.Errorf("same seed produced %v then %v", got, again)
	}
}

// TestDiversityPickersWorkerInvariant extends the serial-vs-parallel
// equivalence pin to the two new pickers composed with both scorer
// families: identical batches AND identical RNG draw positions at every
// worker count, on both sides of the parallel cutoff.
func TestDiversityPickersWorkerInvariant(t *testing.T) {
	for _, size := range []int{parallelCutoff / 2, 2*parallelCutoff + 11} {
		st := newSelectorSetup(t, size+60, int64(size)+3)
		cases := []struct {
			name    string
			sel     Selector
			learner Learner
		}{
			{"kcenter-margin", ComposedSelector{Scorer: MarginScorer{}, Picker: KCenterPicker{}}, st.svm},
			{"cluster-margin", ComposedSelector{Scorer: MarginScorer{}, Picker: ScoredClusterPicker{}}, st.svm},
			{"kcenter-qbc", ComposedSelector{Scorer: VoteScorer{}, Picker: KCenterPicker{}}, st.forest},
			{"cluster-qbc", ComposedSelector{Scorer: VoteScorer{}, Picker: ScoredClusterPicker{}}, st.forest},
		}
		for _, tc := range cases {
			tc := tc
			t.Run(tc.name, func(t *testing.T) {
				wantBatch, want63, want64 := st.run(tc.sel, tc.learner, 0, 10, 55)
				if len(wantBatch) == 0 {
					t.Fatal("serial run selected nothing")
				}
				for _, workers := range []int{1, 2, 8} {
					gotBatch, got63, got64 := st.run(tc.sel, tc.learner, workers, 10, 55)
					assertSameSelection(t, workers, gotBatch, wantBatch, got63, want63, got64, want64)
				}
			})
		}
	}
}
