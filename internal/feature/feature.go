// Package feature converts candidate record pairs into the feature vectors
// consumed by the learners (§3 "Feature Extractor").
//
// Float features: every metric in textsim.All() (21 functions) applied to
// every aligned attribute pair, giving Dim = #attrs × 21 — e.g. 63
// dimensions for Abt-Buy's 3 attributes, 189 for Cora's 9, matching the
// 62/83/188-dimension figures the paper quotes up to its dropped constant
// column.
//
// Boolean features: the rule learner supports only equality, Jaro-Winkler
// and Jaccard (§3); each is discretized over thresholds 0.1..1.0 into
// Boolean atoms of the form  sim(attr) ≥ τ.
//
// If either attribute value of a pair is null the similarity evaluates to
// 0 (§3).
package feature

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"unicode/utf8"

	"github.com/alem/alem/internal/dataset"
	"github.com/alem/alem/internal/par"
	"github.com/alem/alem/internal/textsim"
)

// Vector is a dense float feature vector.
type Vector []float64

// compiledMetric caches the interface assertions of one metric so the
// per-pair loop never type-switches: tsm is non-nil for metrics with the
// interned TokenSet fast path (tokIdx then indexes the extractor's
// tokenizer list). When the extractor runs the fused character kernels,
// char is the metric's textsim.CharScores slot (-1 otherwise) and
// mongeElkan marks Monge-Elkan, which scores from pre-decoded token
// runes.
type compiledMetric struct {
	m          textsim.Metric
	tsm        textsim.TokenSetMetric
	tokIdx     int
	char       int
	mongeElkan bool
}

// Extractor computes float feature vectors for record pairs.
type Extractor struct {
	schema   []string
	metrics  []textsim.Metric
	compiled []compiledMetric
	// tokenizers holds the distinct InternTokenizer()s of the interned
	// metrics; ExtractPairs builds one TokenSet per (touched attribute
	// value, tokenizer), shared by every metric declaring that tokenizer.
	tokenizers []textsim.Tokenizer
	// dict interns tokens across the extractor's lifetime, so repeated
	// ExtractPairs calls (the serving path) only pay dictionary inserts
	// for genuinely new vocabulary. Ids never influence scores, so growth
	// across calls is harmless; memory is bounded by vocabulary size.
	dict *textsim.Dict
	// fused is set when the metric list holds the whole character family
	// (every metric textsim.CharSlot places, plus Monge-Elkan):
	// ExtractPairs then scores it from the fused kernels over runes
	// decoded once per value, and meTok indexes the tokenizer whose
	// TokenSets Monge-Elkan reads.
	fused bool
	meTok int
}

func newExtractor(schema []string, metrics []textsim.Metric) *Extractor {
	e := &Extractor{schema: schema, metrics: metrics, dict: textsim.NewDict()}
	e.compiled = make([]compiledMetric, len(metrics))
	tokIdx := map[textsim.Tokenizer]int{}
	for i, m := range metrics {
		cm := compiledMetric{m: m}
		if tsm, ok := m.(textsim.TokenSetMetric); ok {
			cm.tsm = tsm
			tk := tsm.InternTokenizer()
			idx, seen := tokIdx[tk]
			if !seen {
				idx = len(e.tokenizers)
				tokIdx[tk] = idx
				e.tokenizers = append(e.tokenizers, tk)
			}
			cm.tokIdx = idx
		}
		e.compiled[i] = cm
	}
	e.compileCharFamily()
	return e
}

// compileCharFamily switches the extractor to the fused character
// kernels when its metric list contains every metric they compute;
// otherwise each metric keeps its own per-pair path.
func (e *Extractor) compileCharFamily() {
	var seen [textsim.NumCharMetrics]bool
	me := -1
	for i := range e.compiled {
		cm := &e.compiled[i]
		cm.char = textsim.CharSlot(cm.m)
		if cm.char >= 0 {
			seen[cm.char] = true
		}
		if _, ok := cm.m.(textsim.MongeElkan); ok {
			me = i
		}
	}
	e.fused = me >= 0
	for _, ok := range seen {
		e.fused = e.fused && ok
	}
	if !e.fused {
		for i := range e.compiled {
			e.compiled[i].char = -1
		}
		return
	}
	e.compiled[me].mongeElkan = true
	e.meTok = e.compiled[me].tokIdx
}

// NewExtractor builds the standard extractor: all 21 metrics per attribute.
func NewExtractor(schema []string) *Extractor {
	return newExtractor(schema, textsim.All())
}

// NewExtractorWithMetrics builds an extractor over a custom metric set.
func NewExtractorWithMetrics(schema []string, metrics []textsim.Metric) *Extractor {
	return newExtractor(schema, metrics)
}

// NewExtendedExtractor builds the extended extractor: the standard 21
// metrics plus the corpus-aware and numeric ones (TF-IDF cosine,
// SoftTFIDF, numeric similarity, generalized Jaccard), 25 per attribute.
// An extension beyond the paper's feature set; the ablation-features
// experiment measures its effect.
func NewExtendedExtractor(schema []string, c *textsim.Corpus) *Extractor {
	return newExtractor(schema, append(textsim.All(), textsim.Extended(c)...))
}

// CorpusOf builds the document-frequency corpus over every record of
// both tables (the statistics TF-IDF style metrics weight tokens by).
func CorpusOf(d *dataset.Dataset) *textsim.Corpus {
	docs := make([]string, 0, len(d.Left.Rows)+len(d.Right.Rows))
	for _, r := range d.Left.Rows {
		docs = append(docs, strings.Join(r.Values, " "))
	}
	for _, r := range d.Right.Rows {
		docs = append(docs, strings.Join(r.Values, " "))
	}
	return textsim.NewCorpus(docs)
}

// Dim returns the feature dimensionality: #attrs × #metrics.
func (e *Extractor) Dim() int { return len(e.schema) * len(e.metrics) }

// DimName returns a human-readable name for dimension i, e.g.
// "jaccard(name)". Blocking-dimension diagnostics (§5.1) use it.
func (e *Extractor) DimName(i int) string {
	a := i / len(e.metrics)
	m := i % len(e.metrics)
	return fmt.Sprintf("%s(%s)", e.metrics[m].Name(), e.schema[a])
}

// Extract computes the feature vector of one record pair, every
// dimension from its metric's string Compare. It is the reference the
// interned ExtractPairs is pinned to bit for bit.
func (e *Extractor) Extract(left, right dataset.Record) Vector {
	v := make(Vector, e.Dim())
	for i := range v {
		v[i] = e.ExtractDim(left, right, i)
	}
	return v
}

// ExtractDim computes only dimension i of the pair's feature vector from
// its metric's string Compare; Extract builds every dimension with it.
func (e *Extractor) ExtractDim(left, right dataset.Record, i int) float64 {
	a := i / len(e.metrics)
	m := i % len(e.metrics)
	lv, rv := left.Values[a], right.Values[a]
	if lv == "" || rv == "" {
		return 0
	}
	return e.metrics[m].Compare(lv, rv)
}

// ExtractPairs featurizes a set of candidate pairs in parallel, preserving
// order. This is the one-time featurization pass that precedes active
// learning and the per-request featurization the serving layer pays.
//
// It is the interned hot path: every record attribute value touched by
// the pair set is tokenized and interned into a textsim.TokenSet exactly
// once (a record appearing in k candidate pairs historically paid k
// tokenizations per token metric), and, for the fused character
// kernels, decoded to runes exactly once. All result vectors share one
// flat float64 backing array (one allocation instead of one per pair),
// and the TokenSets live in a per-call arena that is dropped on return,
// so nothing of a call outlives it but the vectors and the extractor's
// dictionary. Output is bit-identical to calling Extract per pair —
// TestExtractPairsMatchesExtract pins it at worker counts {1, 2, 8}.
func (e *Extractor) ExtractPairs(d *dataset.Dataset, pairs []dataset.PairKey) []Vector {
	out, _ := e.extractPairs(context.Background(), d, pairs, 0)
	return out
}

// ExtractPairsContext is ExtractPairs under ctx: interning and
// extraction run on par.Chunks, every worker polls ctx each par.Stride
// rows or pairs, and a cancelled call returns the context's error
// instead of vectors.
func (e *Extractor) ExtractPairsContext(ctx context.Context, d *dataset.Dataset, pairs []dataset.PairKey) ([]Vector, error) {
	return e.extractPairs(ctx, d, pairs, 0)
}

// ExtractPairsWorkers is ExtractPairs with an explicit worker bound
// (zero or negative means GOMAXPROCS, one forces the serial path).
func (e *Extractor) ExtractPairsWorkers(d *dataset.Dataset, pairs []dataset.PairKey, workers int) []Vector {
	out, _ := e.extractPairs(context.Background(), d, pairs, workers)
	return out
}

func (e *Extractor) extractPairs(ctx context.Context, d *dataset.Dataset, pairs []dataset.PairKey, workers int) ([]Vector, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := len(pairs)
	out := make([]Vector, n)
	if n == 0 {
		return out, nil
	}
	dim := e.Dim()
	flat := make([]float64, n*dim)

	var leftSets, rightSets [][]textsim.TokenSet
	nt := len(e.tokenizers)
	if nt > 0 {
		leftRows, rightRows := leftRowsOf(pairs, len(d.Left.Rows)), rightRowsOf(pairs, len(d.Right.Rows))
		var err error
		if leftSets, err = e.internRows(ctx, d.Left, leftRows, workers); err != nil {
			return nil, err
		}
		if rightSets, err = e.internRows(ctx, d.Right, rightRows, workers); err != nil {
			return nil, err
		}
	}
	var leftRunes, rightRunes []valueRunes
	if e.fused {
		leftRunes = e.decodeRows(d.Left, leftSets)
		rightRunes = e.decodeRows(d.Right, rightSets)
	}

	na := len(e.schema)
	err := par.Chunks(ctx, n, workers, 2, func(lo, hi int) {
		var kern *textsim.CharKernel
		if e.fused {
			kern = textsim.GetCharKernel()
			defer kern.Release()
		}
		for i := lo; i < hi; i++ {
			if (i-lo)%par.Stride == 0 && ctx.Err() != nil {
				return
			}
			p := pairs[i]
			row := flat[i*dim : (i+1)*dim : (i+1)*dim]
			out[i] = row
			left, right := d.Left.Rows[p.L], d.Right.Rows[p.R]
			var lsets, rsets []textsim.TokenSet
			if nt > 0 {
				lsets, rsets = leftSets[p.L], rightSets[p.R]
			}
			k := 0
			for a := range e.schema {
				lv, rv := left.Values[a], right.Values[a]
				if lv == "" || rv == "" {
					// Null semantics (§3): the flat backing is zeroed, so
					// the whole attribute block is already 0.
					k += len(e.compiled)
					continue
				}
				var chars textsim.CharScores
				var lr, rr *valueRunes
				if e.fused {
					lr, rr = &leftRunes[p.L*na+a], &rightRunes[p.R*na+a]
					chars = kern.Score(lr.runes, rr.runes)
				}
				for ci := range e.compiled {
					cm := &e.compiled[ci]
					switch {
					case cm.char >= 0:
						row[k] = chars[cm.char]
					case cm.mongeElkan:
						row[k] = kern.MongeElkan(&lsets[a*nt+cm.tokIdx], &rsets[a*nt+cm.tokIdx], lr.toks, rr.toks)
					case cm.tsm != nil:
						row[k] = cm.tsm.CompareTokenSets(&lsets[a*nt+cm.tokIdx], &rsets[a*nt+cm.tokIdx])
					default:
						row[k] = cm.m.Compare(lv, rv)
					}
					k++
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// valueRunes is one attribute value decoded for the fused character
// kernels: its runes, and the runes of each of its Monge-Elkan word
// tokens in TokenSet.Toks order.
type valueRunes struct {
	runes []rune
	toks  [][]rune
}

// decodeRows decodes every touched non-empty value of t (the rows whose
// TokenSets internRows built) and its Monge-Elkan tokens, indexed
// [row*len(schema)+attr]. Every rune lives in one exactly sized backing
// array and every token slice header in another, so a side costs three
// allocations whatever its size. Nothing outlives the ExtractPairs call:
// the extractor keeps no rune buffers between calls.
func (e *Extractor) decodeRows(t *dataset.Table, sets [][]textsim.TokenSet) []valueRunes {
	na, nt := len(e.schema), len(e.tokenizers)
	nrunes, ntoks := 0, 0
	for r, rs := range sets {
		if rs == nil {
			continue
		}
		for a := range e.schema {
			if v := t.Rows[r].Values[a]; v != "" {
				nrunes += utf8.RuneCountInString(v)
				toks := rs[a*nt+e.meTok].Toks
				ntoks += len(toks)
				for _, tok := range toks {
					nrunes += utf8.RuneCountInString(tok)
				}
			}
		}
	}
	vals := make([]valueRunes, len(t.Rows)*na)
	backing := make([]rune, 0, nrunes)
	tokBacking := make([][]rune, 0, ntoks)
	decode := func(s string) []rune {
		start := len(backing)
		for _, c := range s {
			backing = append(backing, c)
		}
		return backing[start:len(backing):len(backing)]
	}
	for r, rs := range sets {
		if rs == nil {
			continue
		}
		for a := range e.schema {
			v := t.Rows[r].Values[a]
			if v == "" {
				continue
			}
			vr := &vals[r*na+a]
			vr.runes = decode(v)
			start := len(tokBacking)
			for _, tok := range rs[a*nt+e.meTok].Toks {
				tokBacking = append(tokBacking, decode(tok))
			}
			vr.toks = tokBacking[start:len(tokBacking):len(tokBacking)]
		}
	}
	return vals
}

// leftRowsOf / rightRowsOf collect the distinct row indices a pair set
// touches on each side, in ascending order.
func leftRowsOf(pairs []dataset.PairKey, n int) []int {
	return distinctRows(pairs, n, func(p dataset.PairKey) int { return p.L })
}

func rightRowsOf(pairs []dataset.PairKey, n int) []int {
	return distinctRows(pairs, n, func(p dataset.PairKey) int { return p.R })
}

func distinctRows(pairs []dataset.PairKey, n int, side func(dataset.PairKey) int) []int {
	seen := make([]bool, n)
	rows := make([]int, 0, min(n, len(pairs)))
	for _, p := range pairs {
		if r := side(p); !seen[r] {
			seen[r] = true
			rows = append(rows, r)
		}
	}
	sort.Ints(rows)
	return rows
}

// internRows tokenizes and interns each needed row's attribute values
// once per tokenizer, in parallel over the row list; sets[r] is indexed
// [attr*len(tokenizers)+tokIdx]. The sets of all rows share one exactly
// sized slab, of which each worker fills its rows' disjoint ranges, and
// their arrays live in the worker's own textsim.SetArena: the sets die
// with the call. Empty values keep zero sets; the extraction loop never
// consults them (null attributes short-circuit). A cancelled ctx stops
// every worker within par.Stride rows and returns the context's error.
func (e *Extractor) internRows(ctx context.Context, t *dataset.Table, rows []int, workers int) ([][]textsim.TokenSet, error) {
	sets := make([][]textsim.TokenSet, len(t.Rows))
	nt := len(e.tokenizers)
	stride := len(e.schema) * nt
	slab := make([]textsim.TokenSet, len(rows)*stride)
	err := par.Chunks(ctx, len(rows), workers, 2, func(lo, hi int) {
		var arena textsim.SetArena
		for i := lo; i < hi; i++ {
			if (i-lo)%par.Stride == 0 && ctx.Err() != nil {
				return
			}
			r := rows[i]
			rs := slab[i*stride : (i+1)*stride : (i+1)*stride]
			for a := range e.schema {
				v := t.Rows[r].Values[a]
				if v == "" {
					continue
				}
				for ti, tok := range e.tokenizers {
					arena.InternInto(e.dict, tok, v, &rs[a*nt+ti])
				}
			}
			sets[r] = rs
		}
	})
	if err != nil {
		return nil, err
	}
	return sets, nil
}

// Atom is one Boolean rule predicate: Metric(Attr) ≥ Threshold (§3, §6.3).
type Atom struct {
	Attr      string
	Metric    string
	Threshold float64
}

// String renders the atom the way the paper prints rules, e.g.
// "JaccardSim(name) >= 0.4".
func (a Atom) String() string {
	return fmt.Sprintf("%s(%s) >= %.1f", a.Metric, a.Attr, a.Threshold)
}

// BoolExtractor computes Boolean atom vectors for the rule learner by
// thresholding the scores of an Extractor over textsim.ForRules(), so
// its atoms come from the same interned pass as the float features.
type BoolExtractor struct {
	ext        *Extractor
	thresholds []float64
}

// NewBoolExtractor builds the rule-learner extractor: the three supported
// metrics discretized on thresholds 0.1, 0.2, ..., 1.0.
func NewBoolExtractor(schema []string) *BoolExtractor {
	ths := make([]float64, 0, 10)
	for t := 1; t <= 10; t++ {
		ths = append(ths, float64(t)/10)
	}
	return &BoolExtractor{ext: newExtractor(schema, textsim.ForRules()), thresholds: ths}
}

// Dim returns #attrs × #metrics × #thresholds.
func (e *BoolExtractor) Dim() int {
	return e.ext.Dim() * len(e.thresholds)
}

// Atom describes Boolean dimension i: score i/#thresholds of the
// underlying extractor against threshold i%#thresholds.
func (e *BoolExtractor) Atom(i int) Atom {
	nt, nm := len(e.thresholds), len(e.ext.metrics)
	k := i / nt
	return Atom{Attr: e.ext.schema[k/nm], Metric: e.ext.metrics[k%nm].Name(), Threshold: e.thresholds[i%nt]}
}

// Extract computes the Boolean atom vector of one record pair from the
// string reference, Extractor.Extract. Atoms over null attributes are
// false (similarity 0 never reaches a threshold).
func (e *BoolExtractor) Extract(left, right dataset.Record) []bool {
	return atoms(e.ext.Extract(left, right), e.thresholds, true)
}

// ExtractPairs featurizes candidate pairs into Boolean vectors,
// preserving order, from the same interned pass as VectorsContext.
func (e *BoolExtractor) ExtractPairs(d *dataset.Dataset, pairs []dataset.PairKey) [][]bool {
	// An uncancellable context: the pass cannot fail.
	scores, _ := e.ext.extractPairs(context.Background(), d, pairs, 0)
	out := make([][]bool, len(scores))
	for i, s := range scores {
		out[i] = atoms(s, e.thresholds, true)
	}
	return out
}

// VectorsContext featurizes candidate pairs in parallel, preserving
// order, into the Boolean vectors ExtractPairs computes encoded as 0/1
// float vectors, the form the rule learner's pools and a rules model's
// matcher score. The scores come from Extractor.ExtractPairsContext's
// pass, so every worker polls ctx each par.Stride rows or pairs, and a
// cancelled call returns the context's error instead of vectors.
func (e *BoolExtractor) VectorsContext(ctx context.Context, d *dataset.Dataset, pairs []dataset.PairKey) ([]Vector, error) {
	return e.vectors(ctx, d, pairs, 0)
}

// vectors is VectorsContext with an explicit worker bound (zero or
// negative means GOMAXPROCS, one forces the serial path).
func (e *BoolExtractor) vectors(ctx context.Context, d *dataset.Dataset, pairs []dataset.PairKey, workers int) ([]Vector, error) {
	scores, err := e.ext.extractPairs(ctx, d, pairs, workers)
	if err != nil {
		return nil, err
	}
	out := make([]Vector, len(scores))
	for i, s := range scores {
		out[i] = atoms(s, e.thresholds, 1.0)
	}
	return out, nil
}

// atoms encodes one pair's scores s as its atoms in Atom order, one per
// (score, threshold): yes where the score reaches the threshold, the
// zero value elsewhere.
func atoms[T bool | float64](s Vector, thresholds []float64, yes T) []T {
	out := make([]T, len(s)*len(thresholds))
	for k, x := range s {
		for t, th := range thresholds {
			if x >= th {
				out[k*len(thresholds)+t] = yes
			}
		}
	}
	return out
}
