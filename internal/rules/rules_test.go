package rules

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/alem/alem/internal/dataset"
	"github.com/alem/alem/internal/feature"
)

// boolVec converts a bit pattern to the 0/1 feature.Vector the model
// consumes.
func boolVec(bits ...int) feature.Vector {
	v := make(feature.Vector, len(bits))
	for i, b := range bits {
		v[i] = float64(b)
	}
	return v
}

// singleAtomData: atom 0 perfectly separates the classes; atoms 1, 2 are
// noise.
func singleAtomData() ([]feature.Vector, []bool) {
	X := []feature.Vector{
		boolVec(1, 0, 1), boolVec(1, 1, 0), boolVec(1, 0, 0), boolVec(1, 1, 1),
		boolVec(0, 1, 1), boolVec(0, 0, 1), boolVec(0, 1, 0), boolVec(0, 0, 0),
	}
	y := []bool{true, true, true, true, false, false, false, false}
	return X, y
}

func testExtractor() *feature.BoolExtractor {
	return feature.NewBoolExtractor([]string{"name"})
}

func TestModelLearnsSingleAtom(t *testing.T) {
	X, y := singleAtomData()
	m := NewModel(testExtractor())
	m.Train(X, y)
	if len(m.Rules()) == 0 {
		t.Fatal("no rules learned on separable data")
	}
	for i, x := range X {
		if m.Predict(x) != y[i] {
			t.Errorf("Predict(%v) = %v, want %v", x, m.Predict(x), y[i])
		}
	}
	// One atom suffices.
	if m.NumAtoms() != 1 {
		t.Errorf("NumAtoms = %d, want 1 (concise rule)", m.NumAtoms())
	}
}

func TestModelLearnsDisjunction(t *testing.T) {
	// Positives satisfy atom 0 OR atom 1; negatives neither.
	X := []feature.Vector{
		boolVec(1, 0, 0), boolVec(1, 0, 1), boolVec(0, 1, 0), boolVec(0, 1, 1),
		boolVec(0, 0, 1), boolVec(0, 0, 0), boolVec(0, 0, 1), boolVec(0, 0, 0),
	}
	y := []bool{true, true, true, true, false, false, false, false}
	m := NewModel(testExtractor())
	m.Train(X, y)
	if len(m.Rules()) < 2 {
		t.Fatalf("rules = %d, want >= 2 (disjunction)", len(m.Rules()))
	}
	for i, x := range X {
		if m.Predict(x) != y[i] {
			t.Errorf("Predict(%v) = %v, want %v", x, m.Predict(x), y[i])
		}
	}
}

func TestModelLearnsConjunction(t *testing.T) {
	// Positive iff atoms 0 AND 1 both hold.
	X := []feature.Vector{
		boolVec(1, 1, 0), boolVec(1, 1, 1),
		boolVec(1, 0, 0), boolVec(0, 1, 1), boolVec(0, 0, 0), boolVec(1, 0, 1),
	}
	y := []bool{true, true, false, false, false, false}
	m := NewModel(testExtractor())
	m.Train(X, y)
	for i, x := range X {
		if m.Predict(x) != y[i] {
			t.Errorf("Predict(%v) = %v, want %v", x, m.Predict(x), y[i])
		}
	}
}

func TestModelPrecisionGate(t *testing.T) {
	// No atom reaches 0.99 precision; with a strict gate nothing should
	// be learned.
	X := []feature.Vector{
		boolVec(1), boolVec(1), boolVec(1), boolVec(1),
		boolVec(1), boolVec(0), boolVec(0), boolVec(0),
	}
	y := []bool{true, true, true, false, false, false, false, false}
	m := NewModel(testExtractor())
	m.MinPrecision = 0.99
	m.Train(X, y)
	if len(m.Rules()) != 0 {
		t.Errorf("learned %d rules despite precision gate", len(m.Rules()))
	}
	if m.Predict(boolVec(1)) {
		t.Error("empty DNF must predict non-match")
	}
}

func TestModelEmptyTraining(t *testing.T) {
	m := NewModel(testExtractor())
	m.Train(nil, nil)
	if m.Predict(boolVec(1, 1, 1)) {
		t.Error("untrained model predicted match")
	}
	if m.NumAtoms() != 0 {
		t.Error("untrained model has atoms")
	}
	if got := m.String(); got != "<empty DNF>" {
		t.Errorf("String = %q", got)
	}
}

func TestModelString(t *testing.T) {
	X, y := singleAtomData()
	m := NewModel(testExtractor())
	m.Train(X, y)
	s := m.String()
	if !strings.Contains(s, ">=") {
		t.Errorf("String() = %q, want rendered atoms", s)
	}
}

// lfpLFNBatch is the §4.3 batch of at most k examples: the first k
// entries of the prefix-stable LFP/LFN ranking.
func lfpLFNBatch(m *Model, X []feature.Vector, unlabeled []int, k int) []int {
	rank, _ := m.RankLFPLFN(X, unlabeled, nil)
	return rank[:min(k, len(rank))]
}

func TestSelectLFPPicksLowSimilarityPredictedMatches(t *testing.T) {
	X, y := singleAtomData()
	m := NewModel(testExtractor())
	m.Train(X, y) // DNF = atom0
	// Unlabeled pool: two predicted matches, one with low overall
	// similarity (the LFP), plus clear non-matches.
	pool := []feature.Vector{
		boolVec(1, 1, 1), // predicted match, high sim
		boolVec(1, 0, 0), // predicted match, LOW sim -> LFP first
		boolVec(0, 0, 0), // non-match, not covered by rule-minus (single-atom rule)
	}
	idx := []int{0, 1, 2}
	sel := lfpLFNBatch(m, pool, idx, 2)
	if len(sel) == 0 {
		t.Fatal("no examples selected")
	}
	if sel[0] != 1 {
		t.Errorf("first selection = %d, want 1 (lowest-similarity predicted match)", sel[0])
	}
}

func TestSelectLFNViaRuleMinus(t *testing.T) {
	// Conjunction atoms {0,1}. An example with atom0 only is covered by
	// the rule-minus (drop atom1) and has moderate similarity -> LFN.
	X := []feature.Vector{
		boolVec(1, 1, 0), boolVec(1, 1, 1),
		boolVec(1, 0, 0), boolVec(0, 1, 1), boolVec(0, 0, 0), boolVec(1, 0, 1),
	}
	y := []bool{true, true, false, false, false, false}
	m := NewModel(testExtractor())
	m.Train(X, y)
	pool := []feature.Vector{
		boolVec(1, 0, 1), // rule-minus covered (atom0 holds, atom1 dropped)
		boolVec(0, 0, 0), // nothing
	}
	sel := lfpLFNBatch(m, pool, []int{0, 1}, 2)
	found := false
	for _, s := range sel {
		if s == 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("rule-minus candidate not selected: %v", sel)
	}
	for _, s := range sel {
		if s == 1 {
			t.Error("selected an example covered by neither DNF nor rule-minus")
		}
	}
}

func TestSelectLFPLFNEmptyOnNoCandidates(t *testing.T) {
	X, y := singleAtomData()
	m := NewModel(testExtractor())
	m.Train(X, y)
	pool := []feature.Vector{boolVec(0, 1, 1), boolVec(0, 0, 1)}
	if sel := lfpLFNBatch(m, pool, []int{0, 1}, 5); len(sel) != 0 {
		t.Errorf("selected %v from a pool with no LFPs/LFNs (termination condition)", sel)
	}
	// Untrained model also selects nothing.
	m2 := NewModel(testExtractor())
	if sel := lfpLFNBatch(m2, pool, []int{0, 1}, 5); len(sel) != 0 {
		t.Errorf("untrained model selected %v", sel)
	}
}

func TestModelOnGeneratedDataset(t *testing.T) {
	// End-to-end sanity: rules learned on a clean publication dataset
	// should reach decent training F1.
	d, err := dataset.Load("dblp-acm", 0.03, 3)
	if err != nil {
		t.Fatal(err)
	}
	ext := feature.NewBoolExtractor(d.Left.Schema)
	pairs := d.Matches()
	// Add an equal number of non-matching pairs.
	neg := 0
	for l := 0; l < len(d.Left.Rows) && neg < len(pairs); l++ {
		for r := 0; r < len(d.Right.Rows) && neg < len(pairs); r++ {
			p := dataset.PairKey{L: l, R: r}
			if !d.IsMatch(p) {
				pairs = append(pairs, p)
				neg++
			}
		}
	}
	X := make([]feature.Vector, len(pairs))
	y := make([]bool, len(pairs))
	for i, p := range pairs {
		bv := ext.Extract(d.Left.Rows[p.L], d.Right.Rows[p.R])
		v := make(feature.Vector, len(bv))
		for j, b := range bv {
			if b {
				v[j] = 1
			}
		}
		X[i] = v
		y[i] = d.IsMatch(p)
	}
	m := NewModel(ext)
	m.Train(X, y)
	if len(m.Rules()) == 0 {
		t.Fatal("no rules learned on dblp-acm sample")
	}
	tp, fp, fn := 0, 0, 0
	for i, x := range X {
		pred := m.Predict(x)
		switch {
		case pred && y[i]:
			tp++
		case pred && !y[i]:
			fp++
		case !pred && y[i]:
			fn++
		}
	}
	f1 := 2 * float64(tp) / float64(2*tp+fp+fn)
	if f1 < 0.6 {
		t.Errorf("training F1 = %.3f, want >= 0.6 on a clean dataset", f1)
	}
}

// TestDNFMonotonicity: the model is a MONOTONE DNF — turning an atom
// from false to true can never flip a prediction from match to
// non-match.
func TestDNFMonotonicity(t *testing.T) {
	X, y := singleAtomData()
	m := NewModel(testExtractor())
	m.Train(X, y)
	r := rand.New(rand.NewSource(8))
	prop := func(bits uint8) bool {
		x := boolVec(int(bits>>0&1), int(bits>>1&1), int(bits>>2&1))
		if !m.Predict(x) {
			return true
		}
		// Raise a random false coordinate to true; prediction must stay.
		up := append(feature.Vector(nil), x...)
		idx := r.Intn(len(up))
		up[idx] = 1
		return m.Predict(up)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTrainIdempotent(t *testing.T) {
	// Training twice on the same data yields the same DNF (greedy cover
	// is deterministic).
	X, y := singleAtomData()
	a := NewModel(testExtractor())
	a.Train(X, y)
	s1 := a.String()
	a.Train(X, y)
	if a.String() != s1 {
		t.Errorf("retraining changed the DNF:\n%s\nvs\n%s", s1, a.String())
	}
}

func TestMaxAtomsHonored(t *testing.T) {
	// Force a long conjunction need: positives require atoms 0..4 all set.
	var X []feature.Vector
	var y []bool
	for i := 0; i < 32; i++ {
		v := boolVec(i&1, (i>>1)&1, (i>>2)&1, (i>>3)&1, (i>>4)&1)
		X = append(X, v)
		y = append(y, i == 31)
	}
	m := NewModel(testExtractor())
	m.MaxAtoms = 2
	m.MinPrecision = 0 // accept whatever precision the cap allows
	m.Train(X, y)
	for _, r := range m.Rules() {
		if len(r.Atoms) > 2 {
			t.Fatalf("rule %v exceeds MaxAtoms=2", r.Atoms)
		}
	}
}

func TestMinPrecisionZeroLearnsSomething(t *testing.T) {
	X, y := singleAtomData()
	m := NewModel(testExtractor())
	m.MinPrecision = 0
	m.Train(X, y)
	if len(m.Rules()) == 0 {
		t.Error("MinPrecision=0 learned nothing on separable data")
	}
}

func TestSelectLFPLFNCancelAbortsScoring(t *testing.T) {
	X, y := singleAtomData()
	m := NewModel(testExtractor())
	m.Train(X, y) // DNF = atom0
	pool := []feature.Vector{
		boolVec(1, 1, 1), boolVec(1, 0, 0), boolVec(0, 0, 0),
	}
	idx := []int{0, 1, 2}
	// Sanity: without cancellation this pool yields candidates.
	if rank, ok := m.RankLFPLFN(pool, idx, nil); !ok || len(rank) == 0 {
		t.Fatalf("uncancelled ranking = %v, %v; want candidates", rank, ok)
	}
	if rank, ok := m.RankLFPLFN(pool, idx, func() bool { return false }); !ok || len(rank) == 0 {
		t.Fatalf("ranking with a live context = %v, %v; want candidates", rank, ok)
	}
	// A cancellation that has already fired aborts with a nil ranking,
	// reported as abandoned, before any example is scored.
	if rank, ok := m.RankLFPLFN(pool, idx, func() bool { return true }); ok || rank != nil {
		t.Fatalf("cancelled ranking = %v, %v; want nil, false", rank, ok)
	}
}

// TestModelDecisionValuesMatchPredict pins DecisionValues over row lists
// of length 0–9 and 65 with a duplicated row: each value is 1 exactly
// when a rule covers the row (the frozen Predict) and 0 otherwise, value
// > DecisionThreshold is Predict, and out past len(rows) stays
// untouched. An empty DNF writes 0 everywhere.
func TestModelDecisionValuesMatchPredict(t *testing.T) {
	X, y := singleAtomData()
	trained := NewModel(testExtractor())
	trained.Train(X, y)
	if len(trained.Rules()) == 0 {
		t.Fatal("no rule learned; the covered rows go untested")
	}
	covered := func(m *Model, x feature.Vector) bool {
		for _, r := range m.rules {
			if r.Covers(x) {
				return true
			}
		}
		return false
	}
	r := rand.New(rand.NewSource(6))
	for name, m := range map[string]*Model{"trained": trained, "untrained": NewModel(testExtractor())} {
		for _, size := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 65} {
			rows := make([]int, size)
			for k := range rows {
				rows[k] = r.Intn(len(X))
			}
			if size > 2 {
				rows[size-1] = rows[0]
			}
			out := make([]float64, size+3)
			for k := range out {
				out[k] = -7
			}
			m.DecisionValues(X, rows, out)
			for k, row := range rows {
				want := 0.0
				if covered(m, X[row]) {
					want = 1
				}
				if out[k] != want || (out[k] > m.DecisionThreshold()) != m.Predict(X[row]) {
					t.Fatalf("%s: row %d value %v, want %v, Predict %v", name, row, out[k], want, m.Predict(X[row]))
				}
			}
			for k := size; k < len(out); k++ {
				if out[k] != -7 {
					t.Fatalf("%s n=%d: out[%d] past len(rows) overwritten", name, size, k)
				}
			}
		}
	}
}
