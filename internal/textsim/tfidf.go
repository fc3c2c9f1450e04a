package textsim

import (
	"math"
	"strconv"
	"strings"
)

// Corpus holds document-frequency statistics over a record collection,
// enabling the corpus-weighted metrics (TF-IDF cosine, SoftTFIDF) that
// EM systems like Magellan offer beyond the 21 per-pair functions. Build
// one with NewCorpus; it is immutable afterwards and safe for concurrent
// use.
//
// The IDF table is precomputed once, when the corpus is built (or
// decoded from a model artifact): corpus statistics never change after
// construction, so recomputing log((N+1)/(df+1)) per token per pair —
// as the metrics historically did — was pure hot-path waste. IDF is now
// one map lookup. The precomputed values use the verbatim historical
// expression, so scores are bit-identical.
type Corpus struct {
	docs int
	df   map[string]int
	tok  Tokenizer

	idf    map[string]float64 // precomputed per-token IDF
	unseen float64            // IDF of a token absent from the corpus
}

// NewCorpus indexes the given documents (typically the concatenated
// attribute values of every record on both sides of an EM instance).
func NewCorpus(docs []string) *Corpus {
	c := &Corpus{df: make(map[string]int), tok: Whitespace{}}
	seen := map[string]struct{}{}
	for _, d := range docs {
		c.docs++
		clear(seen)
		for _, t := range c.tok.Tokens(d) {
			if _, ok := seen[t]; ok {
				continue
			}
			seen[t] = struct{}{}
			c.df[t]++
		}
	}
	c.finalize()
	return c
}

// finalize precomputes the IDF table from the document frequencies. It
// must be called whenever docs/df are (re)established — construction and
// artifact decoding — and never afterwards: the corpus is immutable once
// built, which is what makes the table safe to share lock-free across
// every scoring goroutine.
func (c *Corpus) finalize() {
	c.idf = make(map[string]float64, len(c.df))
	for t, df := range c.df {
		c.idf[t] = math.Log(float64(c.docs+1) / float64(df+1))
	}
	c.unseen = math.Log(float64(c.docs+1) / float64(0+1))
}

// NumDocs returns the number of indexed documents.
func (c *Corpus) NumDocs() int { return c.docs }

// IDF returns the smoothed inverse document frequency of a token.
// Unseen tokens get the maximum IDF.
func (c *Corpus) IDF(token string) float64 {
	if v, ok := c.idf[token]; ok {
		return v
	}
	return c.unseen
}

// TFIDFCosine is cosine similarity between TF-IDF-weighted token
// vectors: tokens frequent across the corpus (stop words, shared brand
// names) contribute little, rare discriminative tokens dominate.
type TFIDFCosine struct {
	Corpus *Corpus
}

// Name implements Metric.
func (TFIDFCosine) Name() string { return "tfidf_cosine" }

// Compare implements Metric.
//
// The weighted dot product and norms accumulate in the tokens'
// first-seen order. The historical implementation folded the weights
// into maps and accumulated in map iteration order, which Go randomizes
// per call — and because TF-IDF weights are not integers, the
// floating-point sums picked up different last-bit rounding on every
// invocation: the one metric in the suite whose score was not a pure
// function of its inputs. Deterministic accumulation order fixes that
// (TestTFIDFCosineDeterministic), and first-seen order is what the
// interned CompareTokenSets path reproduces.
func (m TFIDFCosine) Compare(a, b string) float64 {
	if m.Corpus == nil {
		return Cosine{}.Compare(a, b)
	}
	ta := (Whitespace{}).Tokens(a)
	tb := (Whitespace{}).Tokens(b)
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	da, ca := distinctCounts(ta)
	db, cb := distinctCounts(tb)
	wb := make(map[string]float64, len(db))
	for k, t := range db {
		wb[t] = float64(cb[k]) * m.Corpus.IDF(t)
	}
	var dot, na, nb float64
	for k, t := range da {
		x := float64(ca[k]) * m.Corpus.IDF(t)
		na += x * x
		if y, ok := wb[t]; ok {
			dot += x * y
		}
	}
	for k, t := range db {
		y := float64(cb[k]) * m.Corpus.IDF(t)
		nb += y * y
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// InternTokenizer implements TokenSetMetric.
func (TFIDFCosine) InternTokenizer() Tokenizer { return Whitespace{} }

// CompareTokenSets implements TokenSetMetric: identical accumulation
// order to Compare (first-seen distinct tokens), with the b-side weight
// found through a binary search on interned ids instead of a map.
func (m TFIDFCosine) CompareTokenSets(a, b *TokenSet) float64 {
	if m.Corpus == nil {
		return Cosine{}.CompareTokenSets(a, b)
	}
	if a.Len() == 0 && b.Len() == 0 {
		return 1
	}
	if a.Len() == 0 || b.Len() == 0 {
		return 0
	}
	var dot, na, nb float64
	for k, t := range a.Distinct {
		w := m.Corpus.IDF(t)
		x := float64(a.DistinctCounts[k]) * w
		na += x * x
		if j := findInt32(b.IDs, a.DistinctIDs[k]); j >= 0 {
			// Same token string on both sides, hence the same IDF.
			y := float64(b.Counts[j]) * w
			dot += x * y
		}
	}
	for k, t := range b.Distinct {
		y := float64(b.DistinctCounts[k]) * m.Corpus.IDF(t)
		nb += y * y
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// distinctCounts returns the distinct tokens in first-seen order and
// their multiplicities.
func distinctCounts(tokens []string) ([]string, []int) {
	idx := make(map[string]int, len(tokens))
	out := make([]string, 0, len(tokens))
	cnt := make([]int, 0, len(tokens))
	for _, t := range tokens {
		if i, ok := idx[t]; ok {
			cnt[i]++
			continue
		}
		idx[t] = len(out)
		out = append(out, t)
		cnt = append(cnt, 1)
	}
	return out, cnt
}

// SoftTFIDF is Cohen, Ravikumar & Fienberg's hybrid metric: TF-IDF
// weighting over tokens matched softly by Jaro-Winkler at threshold θ
// (0.9 in the original paper), symmetrized. It scores typo'd rare tokens
// almost as highly as exact ones.
type SoftTFIDF struct {
	Corpus    *Corpus
	Threshold float64
}

// Name implements Metric.
func (SoftTFIDF) Name() string { return "soft_tfidf" }

// Compare implements Metric.
func (m SoftTFIDF) Compare(a, b string) float64 {
	if m.Corpus == nil {
		return GeneralizedJaccard{}.Compare(a, b)
	}
	th := m.Threshold
	if th == 0 {
		th = 0.9
	}
	ta := setSlice((Whitespace{}).Tokens(a))
	tb := setSlice((Whitespace{}).Tokens(b))
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	return (m.directed(ta, tb, th) + m.directed(tb, ta, th)) / 2
}

// InternTokenizer implements TokenSetMetric.
func (SoftTFIDF) InternTokenizer() Tokenizer { return Whitespace{} }

// CompareTokenSets implements TokenSetMetric. The directed walks consume
// the distinct tokens in first-seen order, which is exactly what
// setSlice produced on the string path, so scores are bit-identical.
func (m SoftTFIDF) CompareTokenSets(a, b *TokenSet) float64 {
	if m.Corpus == nil {
		return GeneralizedJaccard{}.CompareTokenSets(a, b)
	}
	th := m.Threshold
	if th == 0 {
		th = 0.9
	}
	if a.Len() == 0 && b.Len() == 0 {
		return 1
	}
	if a.Len() == 0 || b.Len() == 0 {
		return 0
	}
	return (m.directed(a.Distinct, b.Distinct, th) + m.directed(b.Distinct, a.Distinct, th)) / 2
}

func (m SoftTFIDF) directed(ta, tb []string, th float64) float64 {
	jw := JaroWinkler{}
	var num, denom float64
	for _, x := range ta {
		wx := m.Corpus.IDF(x)
		denom += wx * wx
		best, bestTok := 0.0, ""
		for _, y := range tb {
			if s := jw.Compare(x, y); s > best {
				best, bestTok = s, y
			}
		}
		if best >= th {
			num += wx * m.Corpus.IDF(bestTok) * best
		}
	}
	var denomB float64
	for _, y := range tb {
		wy := m.Corpus.IDF(y)
		denomB += wy * wy
	}
	if denom == 0 || denomB == 0 {
		return 0
	}
	return num / (math.Sqrt(denom) * math.Sqrt(denomB))
}

// NumericSim compares two numeric strings by relative difference:
// 1 − |a−b| / max(|a|, |b|), clamped to [0,1]; non-numeric inputs fall
// back to Levenshtein. Price and measurement attributes benefit from it
// where string metrics see "49.99" vs "47.50" as near-disjoint.
type NumericSim struct{}

// Name implements Metric.
func (NumericSim) Name() string { return "numeric" }

// Compare implements Metric.
func (NumericSim) Compare(a, b string) float64 {
	va, oka := parseNumeric(a)
	vb, okb := parseNumeric(b)
	if !oka || !okb {
		return Levenshtein{}.Compare(a, b)
	}
	if va == vb {
		return 1
	}
	den := math.Max(math.Abs(va), math.Abs(vb))
	if den == 0 {
		return 1
	}
	sim := 1 - math.Abs(va-vb)/den
	if sim < 0 {
		return 0
	}
	return sim
}

// parseNumeric parses s as a finite number. ParseFloat also accepts
// "NaN" and "Inf", which would turn the relative difference into NaN;
// those count as non-numeric.
func parseNumeric(s string) (float64, bool) {
	s = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(s), "$"))
	v, err := strconv.ParseFloat(s, 64)
	return v, err == nil && !math.IsNaN(v) && !math.IsInf(v, 0)
}

// Extended returns the corpus-aware and numeric metrics beyond the
// standard 21, bound to the given corpus. The feature extractor accepts
// them via NewExtractorWithMetrics.
func Extended(c *Corpus) []Metric {
	return []Metric{
		TFIDFCosine{Corpus: c},
		SoftTFIDF{Corpus: c},
		NumericSim{},
		GeneralizedJaccard{},
	}
}
