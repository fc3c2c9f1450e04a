package feature

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/alem/alem/internal/dataset"
	"github.com/alem/alem/internal/textsim"
)

// equivDataset builds a mixed-case/unicode dataset with nulls, duplicate
// tokens and records that appear in many pairs — the shapes the interned
// path optimizes and therefore must reproduce exactly.
func equivDataset(tb testing.TB) (*dataset.Dataset, []dataset.PairKey) {
	tb.Helper()
	schema := []string{"name", "maker", "price"}
	rng := rand.New(rand.NewSource(42))
	words := []string{
		"Samsung", "Galaxy", "S21", "ULTRA", "ultra", "128GB", "Phone",
		"Téléphone", "черный", "schwarz", "世界", "Pro", "pro", "Max", "(5G)",
	}
	val := func() string {
		n := rng.Intn(6)
		s := ""
		for i := 0; i < n; i++ {
			if i > 0 {
				s += " "
			}
			s += words[rng.Intn(len(words))]
		}
		return s
	}
	mkTable := func(name string, rows int) *dataset.Table {
		t := &dataset.Table{Name: name, Schema: schema}
		for i := 0; i < rows; i++ {
			vals := []string{val(), val(), fmt.Sprintf("%d.99", rng.Intn(500))}
			if rng.Intn(6) == 0 {
				vals[rng.Intn(3)] = "" // nulls exercise the zero-block path
			}
			t.Rows = append(t.Rows, dataset.Record{ID: fmt.Sprintf("%s-%d", name, i), Values: vals})
		}
		return t
	}
	left := mkTable("L", 30)
	right := mkTable("R", 40)
	d := dataset.NewDataset("equiv", left, right, nil, 0.2)
	var pairs []dataset.PairKey
	for l := 0; l < len(left.Rows); l++ {
		for r := 0; r < len(right.Rows); r += 1 + rng.Intn(4) {
			pairs = append(pairs, dataset.PairKey{L: l, R: r})
		}
	}
	return d, pairs
}

// TestExtractPairsMatchesExtract pins the interned batched path
// bit-identical to the per-pair string path at worker counts {1, 2, 8},
// for the standard and extended metric sets.
func TestExtractPairsMatchesExtract(t *testing.T) {
	d, pairs := equivDataset(t)
	corpus := CorpusOf(d)
	extractors := map[string]*Extractor{
		"standard": NewExtractor(d.Left.Schema),
		"extended": NewExtendedExtractor(d.Left.Schema, corpus),
	}
	for name, e := range extractors {
		e := e
		t.Run(name, func(t *testing.T) {
			want := make([]Vector, len(pairs))
			for i, p := range pairs {
				want[i] = e.Extract(d.Left.Rows[p.L], d.Right.Rows[p.R])
			}
			for _, workers := range []int{1, 2, 8} {
				got := e.ExtractPairsWorkers(d, pairs, workers)
				if len(got) != len(want) {
					t.Fatalf("workers=%d: %d vectors, want %d", workers, len(got), len(want))
				}
				for i := range got {
					if len(got[i]) != len(want[i]) {
						t.Fatalf("workers=%d pair %d: dim %d, want %d", workers, i, len(got[i]), len(want[i]))
					}
					for j := range got[i] {
						if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
							t.Fatalf("workers=%d pair %d dim %d (%s): interned=%v string=%v",
								workers, i, j, e.DimName(j), got[i][j], want[i][j])
						}
					}
				}
			}
		})
	}
}

// TestExtractPairsVectorsIndependent guards the flat-backing layout: the
// returned vectors must not alias each other even under append growth.
func TestExtractPairsVectorsIndependent(t *testing.T) {
	d, pairs := equivDataset(t)
	e := NewExtractor(d.Left.Schema)
	X := e.ExtractPairsWorkers(d, pairs, 2)
	if len(X) < 2 {
		t.Fatal("need at least two vectors")
	}
	// Appending to one vector must not clobber its neighbour (the flat
	// slices are capacity-capped).
	before := make(Vector, len(X[1]))
	copy(before, X[1])
	_ = append(X[0], 12345)
	for j := range X[1] {
		if X[1][j] != before[j] {
			t.Fatalf("append to X[0] corrupted X[1][%d]", j)
		}
	}
}

// TestExtractPairsCustomMetricSet checks the no-interned-metric path: an
// extractor over plain metrics only must still work and match Extract.
func TestExtractPairsCustomMetricSet(t *testing.T) {
	d, pairs := equivDataset(t)
	e := NewExtractorWithMetrics(d.Left.Schema, []textsim.Metric{textsim.Levenshtein{}, textsim.Identity{}})
	got := e.ExtractPairsWorkers(d, pairs, 2)
	for i, p := range pairs {
		want := e.Extract(d.Left.Rows[p.L], d.Right.Rows[p.R])
		for j := range want {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[j]) {
				t.Fatalf("pair %d dim %d: %v != %v", i, j, got[i][j], want[j])
			}
		}
	}
}

// TestExtractPairsAllocRatchet is the featurization allocs/op ratchet:
// the interned batch path must stay under a fixed per-pair allocation
// budget. The historical per-pair string path paid ~25 map and slice
// allocations per token-metric block per pair; the interned path
// amortizes tokenization per record and scores with zero per-pair
// allocations, leaving only the flat vector array, the tokenization of
// touched rows, the call's token-set slab and arena chunks, and fixed
// bookkeeping.
func TestExtractPairsAllocRatchet(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation behaviour differs under the race detector")
	}
	d, pairs := equivDataset(t)
	e := NewExtractor(d.Left.Schema)
	e.ExtractPairsWorkers(d, pairs, 1) // warm the dictionary and scratch pools
	avg := testing.AllocsPerRun(20, func() {
		e.ExtractPairsWorkers(d, pairs, 1)
	})
	perPair := avg / float64(len(pairs))
	// Budget: ≤ 2 allocations per pair on average (tokenization of
	// touched rows and the arena's chunks amortize across pairs; the old
	// path measured >200/pair). Generous enough to be stable, tight
	// enough that any per-pair map allocation regression trips it.
	if perPair > 2.0 {
		t.Fatalf("allocs per pair = %.2f (total %.0f over %d pairs), ratchet budget 2.0",
			perPair, avg, len(pairs))
	}
}

// TestExtractPairsRetainsNothing pins that a call's token sets die with
// the call. After two ExtractPairs calls on a generated dblp-scholar
// pool, one collection must free everything the calls left behind: a
// second collection may find less than 1 MB more. Sets parked in a
// sync.Pool fail it, because a pool's victim cache outlives one
// collection.
func TestExtractPairsRetainsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("heap behaviour differs under the race detector")
	}
	d, pairs := profilePool(t, "dblp-scholar", 0.1)
	e := NewExtractor(d.Left.Schema)
	for range 2 {
		e.ExtractPairsWorkers(d, pairs, 2)
	}
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	once := m.HeapAlloc
	runtime.GC()
	runtime.ReadMemStats(&m)
	if kept := (float64(once) - float64(m.HeapAlloc)) / (1 << 20); kept >= 1 {
		t.Fatalf("a second collection freed %.2f MB more than the first (%d pairs); budget 1 MB", kept, len(pairs))
	}
}
