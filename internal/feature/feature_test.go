package feature

import (
	"strings"
	"testing"

	"github.com/alem/alem/internal/dataset"
)

func pairRecords() (dataset.Record, dataset.Record) {
	l := dataset.Record{ID: "L0", Values: []string{"sonixx wireless speaker", "29.99"}}
	r := dataset.Record{ID: "R0", Values: []string{"sonixx wireless speaker", "29.99"}}
	return l, r
}

func TestExtractorDim(t *testing.T) {
	e := NewExtractor([]string{"name", "price"})
	if e.Dim() != 42 {
		t.Errorf("Dim = %d, want 2*21 = 42", e.Dim())
	}
	e3 := NewExtractor([]string{"a", "b", "c"})
	if e3.Dim() != 63 {
		t.Errorf("Dim = %d, want 63 (Abt-Buy-like 3 attrs)", e3.Dim())
	}
}

func TestExtractIdenticalPairIsAllOnes(t *testing.T) {
	e := NewExtractor([]string{"name", "price"})
	l, r := pairRecords()
	v := e.Extract(l, r)
	if len(v) != e.Dim() {
		t.Fatalf("vector len %d, want %d", len(v), e.Dim())
	}
	for i, x := range v {
		if x < 0.999 {
			t.Errorf("dim %d (%s) = %v, want 1 for identical records", i, e.DimName(i), x)
		}
	}
}

func TestExtractNullsScoreZero(t *testing.T) {
	e := NewExtractor([]string{"name", "price"})
	l := dataset.Record{Values: []string{"sonixx speaker", ""}}
	r := dataset.Record{Values: []string{"sonixx speaker", "29.99"}}
	v := e.Extract(l, r)
	// All 21 price dims must be exactly 0 (§3 null handling).
	for i := 21; i < 42; i++ {
		if v[i] != 0 {
			t.Errorf("null attr dim %d = %v, want 0", i, v[i])
		}
	}
	// Name dims unaffected.
	if v[0] != 1 {
		t.Errorf("identity(name) = %v, want 1", v[0])
	}
}

func TestExtractRange(t *testing.T) {
	e := NewExtractor([]string{"name"})
	l := dataset.Record{Values: []string{"veltron compact camera"}}
	r := dataset.Record{Values: []string{"veltron camera kit zoom"}}
	for i, x := range e.Extract(l, r) {
		if x < 0 || x > 1 {
			t.Errorf("dim %d (%s) = %v outside [0,1]", i, e.DimName(i), x)
		}
	}
}

func TestDimName(t *testing.T) {
	e := NewExtractor([]string{"name", "price"})
	if got := e.DimName(0); got != "identity(name)" {
		t.Errorf("DimName(0) = %q, want identity(name)", got)
	}
	if got := e.DimName(21); got != "identity(price)" {
		t.Errorf("DimName(21) = %q, want identity(price)", got)
	}
	if !strings.Contains(e.DimName(11), "jaccard") {
		t.Errorf("DimName(11) = %q, want a jaccard dim", e.DimName(11))
	}
}

func TestExtractPairsParallelMatchesSequential(t *testing.T) {
	d, err := dataset.Load("beer", 0.5, 5)
	if err != nil {
		t.Fatal(err)
	}
	pairs := d.Matches()
	e := NewExtractor(d.Left.Schema)
	par := e.ExtractPairs(d, pairs)
	for i, p := range pairs {
		seq := e.Extract(d.Left.Rows[p.L], d.Right.Rows[p.R])
		for j := range seq {
			if par[i][j] != seq[j] {
				t.Fatalf("pair %d dim %d: parallel %v != sequential %v", i, j, par[i][j], seq[j])
			}
		}
	}
}

func TestBoolExtractorDim(t *testing.T) {
	e := NewBoolExtractor([]string{"name", "price"})
	if e.Dim() != 2*3*10 {
		t.Errorf("Dim = %d, want 60", e.Dim())
	}
}

func TestBoolExtractorAtoms(t *testing.T) {
	e := NewBoolExtractor([]string{"name", "price"})
	a0 := e.Atom(0)
	if a0.Attr != "name" || a0.Metric != "identity" || a0.Threshold != 0.1 {
		t.Errorf("Atom(0) = %+v", a0)
	}
	last := e.Atom(e.Dim() - 1)
	if last.Attr != "price" || last.Metric != "jaccard" || last.Threshold != 1.0 {
		t.Errorf("Atom(last) = %+v", last)
	}
	if got := a0.String(); got != "identity(name) >= 0.1" {
		t.Errorf("Atom String = %q", got)
	}
}

func TestBoolExtractorMonotoneInThreshold(t *testing.T) {
	e := NewBoolExtractor([]string{"name"})
	l := dataset.Record{Values: []string{"sonixx wireless speaker"}}
	r := dataset.Record{Values: []string{"sonixx wired speaker"}}
	v := e.Extract(l, r)
	// Within each metric block, true bits must be a prefix: sim >= 0.5
	// implies sim >= 0.4.
	for m := 0; m < 3; m++ {
		seenFalse := false
		for t10 := 0; t10 < 10; t10++ {
			bit := v[m*10+t10]
			if bit && seenFalse {
				t.Fatalf("metric %d: non-monotone threshold bits %v", m, v[m*10:m*10+10])
			}
			if !bit {
				seenFalse = true
			}
		}
	}
}

func TestBoolExtractorNullAllFalse(t *testing.T) {
	e := NewBoolExtractor([]string{"name"})
	l := dataset.Record{Values: []string{""}}
	r := dataset.Record{Values: []string{"anything"}}
	for i, b := range e.Extract(l, r) {
		if b {
			t.Errorf("null attr atom %d (%s) = true, want false", i, e.Atom(i))
		}
	}
}

func TestBoolExtractorIdenticalAllTrue(t *testing.T) {
	e := NewBoolExtractor([]string{"name"})
	l := dataset.Record{Values: []string{"sonixx speaker"}}
	v := e.Extract(l, l)
	for i, b := range v {
		if !b {
			t.Errorf("identical pair atom %d (%s) = false, want true", i, e.Atom(i))
		}
	}
}

func TestBoolExtractPairs(t *testing.T) {
	d, err := dataset.Load("beer", 0.3, 5)
	if err != nil {
		t.Fatal(err)
	}
	pairs := d.Matches()
	e := NewBoolExtractor(d.Left.Schema)
	got := e.ExtractPairs(d, pairs)
	if len(got) != len(pairs) {
		t.Fatalf("len = %d, want %d", len(got), len(pairs))
	}
	for i, p := range pairs {
		seq := e.Extract(d.Left.Rows[p.L], d.Right.Rows[p.R])
		for j := range seq {
			if got[i][j] != seq[j] {
				t.Fatalf("pair %d atom %d mismatch", i, j)
			}
		}
	}
}
