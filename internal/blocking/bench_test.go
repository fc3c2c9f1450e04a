package blocking

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/alem/alem/internal/dataset"
)

// benchTable synthesizes a table whose records draw a handful of tokens
// from a large vocabulary — the regime where an inverted index pays off,
// because only a small fraction of the Cartesian product shares any
// token at all. Every tenth right record is seeded as a near-duplicate
// of its left counterpart so the benchmark keeps real matches to verify.
func benchTable(r *rand.Rand, n, vocab, toksPer int, side string, base *dataset.Table) *dataset.Table {
	tb := &dataset.Table{Name: side}
	for i := 0; i < n; i++ {
		var toks []string
		if base != nil && i%10 == 0 && i < len(base.Rows) {
			toks = strings.Fields(base.Rows[i].Values[0])
			toks[r.Intn(len(toks))] = fmt.Sprintf("tok%05d", r.Intn(vocab))
		} else {
			for j := 0; j < toksPer; j++ {
				toks = append(toks, fmt.Sprintf("tok%05d", r.Intn(vocab)))
			}
		}
		tb.Rows = append(tb.Rows, dataset.Record{
			ID:     fmt.Sprintf("%s%d", side, i),
			Values: []string{strings.Join(toks, " ")},
		})
	}
	return tb
}

// benchDataset is the shared 1000×1000 corpus: a one-million-pair
// Cartesian space over a 5000-token vocabulary at threshold 0.5.
func benchDataset() *dataset.Dataset {
	r := rand.New(rand.NewSource(7))
	left := benchTable(r, 1000, 5000, 8, "L", nil)
	right := benchTable(r, 1000, 5000, 8, "R", left)
	return dataset.NewDataset("bench", left, right, nil, 0.5)
}

func BenchmarkIndexBuild(b *testing.B) {
	d := benchDataset()
	for _, bc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				idx := NewCandidateIndex(d, IndexOptions{Workers: bc.workers})
				if err := idx.Build(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCandidates times enumeration alone, Build outside the timer:
// the synthetic corpus at θ 0.5, serial and parallel, and generated
// dblp-scholar at scale 1 at its own θ 0.1875 — long records at a low
// threshold, where prefixes cover most of each record, posting probes
// surface millions of pairs and the count filter prunes nearly all of
// them before verification.
func BenchmarkCandidates(b *testing.B) {
	synth := benchDataset()
	for _, bc := range []struct {
		name    string
		load    func() (*dataset.Dataset, error)
		workers int
	}{
		{"serial", func() (*dataset.Dataset, error) { return synth, nil }, 1},
		{"parallel", func() (*dataset.Dataset, error) { return synth, nil }, 0},
		{"dblp-scholar", func() (*dataset.Dataset, error) { return dataset.Load("dblp-scholar", 1.0, 1) }, 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			d, err := bc.load()
			if err != nil {
				b.Fatal(err)
			}
			idx := NewCandidateIndex(d, IndexOptions{Workers: bc.workers})
			if err := idx.Build(context.Background()); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := idx.Candidates(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBlockPairs is the naive-vs-indexed headline pair: the full
// Build + Candidates pipeline over the million-pair corpus, Cartesian
// scan against inverted index. Both paths produce the identical
// candidate set (the equivalence suite pins it); the index simply
// refuses to verify the ~99% of pairs that share no token.
func BenchmarkBlockPairs(b *testing.B) {
	d := benchDataset()
	gens := []struct {
		name string
		mk   func() CandidateGenerator
	}{
		{"naive", func() CandidateGenerator { return NewNaive(d, 0) }},
		{"indexed", func() CandidateGenerator { return NewCandidateIndex(d, IndexOptions{}) }},
	}
	for _, bc := range gens {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Generate(context.Background(), bc.mk())
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Pairs) == 0 {
					b.Fatal("benchmark corpus produced no candidates")
				}
			}
		})
	}
}
