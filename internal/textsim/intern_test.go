package textsim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// tokenSetMetrics is every corpus-free metric with an interned fast
// path; the equivalence suite walks it so adding an implementation
// without a pin is impossible (see TestTokenSetMetricCoverage). The
// corpus-bound TF-IDF metrics are pinned by TestTFIDFTokenSetEquivalence.
func tokenSetMetrics() []TokenSetMetric {
	return []TokenSetMetric{
		Jaccard{}, Dice{}, Cosine{}, Overlap{}, MatchingCoefficient{},
		BlockDistance{}, Euclidean{}, MongeElkan{}, GeneralizedJaccard{},
		Identity{}, QGram{}, SimonWhite{}, Soundex{},
	}
}

// internWords is a vocabulary with deliberate collisions, near-typos
// (for the soft metrics' Jaro-Winkler inner loops), unicode and
// mixed-width tokens.
var internWords = []string{
	"apple", "appel", "apples", "samsung", "galaxy", "galaxxy", "s21",
	"ultra", "128gb", "черный", "schwarz", "noir", "télé", "tele",
	"世界", "世", "pro", "max", "mini", "a", "b", "the",
}

func randomTokenDoc(rng *rand.Rand, maxLen int) string {
	n := rng.Intn(maxLen + 1)
	s := ""
	for i := 0; i < n; i++ {
		if i > 0 {
			s += " "
		}
		s += internWords[rng.Intn(len(internWords))]
	}
	return s
}

// checkTokenSetEquivalence interns both docs with m's declared tokenizer
// and pins CompareTokenSets bit-identical to Compare (and, for word
// metrics, to CompareTokens).
func checkTokenSetEquivalence(t *testing.T, dict *Dict, m TokenSetMetric, a, b string) {
	t.Helper()
	tok := m.InternTokenizer()
	sa, sb := new(TokenSet), new(TokenSet)
	dict.InternValue(tok, a, sa)
	dict.InternValue(tok, b, sb)
	got := m.CompareTokenSets(sa, sb)
	wantCompare := m.Compare(a, b)
	if math.Float64bits(got) != math.Float64bits(wantCompare) {
		t.Fatalf("%s(%q, %q): CompareTokenSets=%v Compare=%v", m.Name(), a, b, got, wantCompare)
	}
	if tm, ok := m.(TokenMetric); ok {
		wantTokens := tm.CompareTokens(tok.Tokens(a), tok.Tokens(b))
		if math.Float64bits(got) != math.Float64bits(wantTokens) {
			t.Fatalf("%s(%q, %q): CompareTokenSets=%v CompareTokens=%v", m.Name(), a, b, got, wantTokens)
		}
	}
}

// TestTokenSetMetricEquivalence pins CompareTokenSets bit-identical to
// Compare (and CompareTokens where implemented) across randomized token
// multisets, including duplicate-heavy, unicode and empty inputs.
func TestTokenSetMetricEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	dict := NewDict()
	docs := make([]string, 0, 400)
	for i := 0; i < 396; i++ {
		docs = append(docs, randomTokenDoc(rng, 8))
	}
	// Forced edge cases.
	docs = append(docs, "", "the the the the", "apple apple appel", "世界 世 世界")
	for _, m := range tokenSetMetrics() {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			for i := 0; i+1 < len(docs); i += 2 {
				checkTokenSetEquivalence(t, dict, m, docs[i], docs[i+1])
			}
		})
	}
}

// TestTFIDFTokenSetEquivalence is the corpus-bound counterpart: the
// TF-IDF metrics' interned paths must be bit-identical to their (now
// deterministic) string paths under a real document-frequency corpus.
func TestTFIDFTokenSetEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	docs := make([]string, 0, 200)
	for i := 0; i < 196; i++ {
		docs = append(docs, randomTokenDoc(rng, 8))
	}
	docs = append(docs, "", "the the the the", "apple apple appel", "世界 世 世界")
	c := NewCorpus(docs)
	dict := NewDict()
	cases := []struct {
		label string
		m     TokenSetMetric
	}{
		{"tfidf_cosine", TFIDFCosine{Corpus: c}},
		{"soft_tfidf", SoftTFIDF{Corpus: c}},
		{"tfidf_cosine_nil_corpus", TFIDFCosine{}}, // fallback paths
		{"soft_tfidf_nil_corpus", SoftTFIDF{}},
	}
	for _, tc := range cases {
		m := tc.m
		t.Run(tc.label, func(t *testing.T) {
			for i := 0; i+1 < len(docs); i += 2 {
				checkTokenSetEquivalence(t, dict, m, docs[i], docs[i+1])
			}
		})
	}
}

// TestTFIDFCosineDeterministic pins the latent-bug fix: TF-IDF cosine
// historically accumulated non-integer weights in map iteration order,
// so repeated calls on the same inputs could differ in the last bit.
// The score must now be a pure function of its inputs.
func TestTFIDFCosineDeterministic(t *testing.T) {
	c := NewCorpus([]string{
		"samsung galaxy s21 ultra", "samsung galaxy note", "apple iphone pro",
		"galaxy ultra 128gb black", "the the the", "pro max mini",
	})
	m := TFIDFCosine{Corpus: c}
	a := "samsung galaxy s21 ultra 128gb black pro"
	b := "galaxy samsung note pro max the black"
	want := math.Float64bits(m.Compare(a, b))
	for i := 0; i < 200; i++ {
		if got := math.Float64bits(m.Compare(a, b)); got != want {
			t.Fatalf("call %d: Compare changed bits: %x vs %x", i, got, want)
		}
	}
}

// TestTokenSetMetricCoverage asserts the interned fast path covers every
// metric it should: all TokenMetrics, the gram-profile and phonetic
// metrics, identity, and the corpus-weighted metrics — so a new metric
// cannot silently fall off the batch extractor's zero-alloc path.
func TestTokenSetMetricCoverage(t *testing.T) {
	all := append(All(), Extended(NewCorpus(nil))...)
	wantInterned := map[string]bool{
		"identity": true, "qgram": true, "jaccard": true, "dice": true,
		"simon_white": true, "cosine": true, "overlap": true,
		"matching_coefficient": true, "block_distance": true,
		"euclidean": true, "monge_elkan": true, "soundex": true,
		"generalized_jaccard": true, "tfidf_cosine": true, "soft_tfidf": true,
	}
	for _, m := range all {
		_, isTok := m.(TokenMetric)
		_, isSet := m.(TokenSetMetric)
		if isTok && !isSet {
			t.Errorf("metric %s implements TokenMetric but not TokenSetMetric (interned path)", m.Name())
		}
		if wantInterned[m.Name()] && !isSet {
			t.Errorf("metric %s fell off the interned fast path", m.Name())
		}
	}
}

// TestInternTokensRepresentation checks the TokenSet invariants the
// metrics rely on: ascending distinct IDs, aligned multiplicities that
// sum to the token count, and Distinct in first-seen order.
func TestInternTokensRepresentation(t *testing.T) {
	dict := NewDict()
	ts := new(TokenSet)
	toks := []string{"b", "a", "b", "c", "a", "b"}
	dict.InternTokens(toks, ts)
	if ts.Len() != 6 {
		t.Fatalf("Len = %d, want 6", ts.Len())
	}
	if len(ts.IDs) != 3 || len(ts.Counts) != 3 {
		t.Fatalf("IDs/Counts = %v/%v, want 3 distinct", ts.IDs, ts.Counts)
	}
	total := 0
	for i := range ts.IDs {
		if i > 0 && ts.IDs[i] <= ts.IDs[i-1] {
			t.Fatalf("IDs not strictly ascending: %v", ts.IDs)
		}
		total += int(ts.Counts[i])
	}
	if total != 6 {
		t.Fatalf("Counts sum = %d, want 6", total)
	}
	want := []string{"b", "a", "c"}
	if len(ts.Distinct) != len(want) {
		t.Fatalf("Distinct = %v, want %v", ts.Distinct, want)
	}
	for i := range want {
		if ts.Distinct[i] != want[i] {
			t.Fatalf("Distinct = %v, want %v (first-seen order)", ts.Distinct, want)
		}
	}
	// Re-interning different content into the same set must fully
	// overwrite it.
	dict.InternTokens([]string{"z"}, ts)
	if ts.Len() != 1 || len(ts.IDs) != 1 || len(ts.Distinct) != 1 || ts.Distinct[0] != "z" {
		t.Fatalf("reused TokenSet kept stale state: %+v", ts)
	}
}

func TestDictInternStable(t *testing.T) {
	d := NewDict()
	a := d.Intern("apple")
	b := d.Intern("banana")
	if a == b {
		t.Fatalf("distinct tokens got the same id %d", a)
	}
	if got := d.Intern("apple"); got != a {
		t.Fatalf("re-Intern changed id: %d then %d", a, got)
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
}

// TestQGramLowerOnceEquivalence pins the single-pass decode-and-lower
// q-gram tokenizer against the historical two-allocation form
// []rune(strings.ToLower(s)) on mixed-case, unicode and invalid-UTF-8
// input, padded and unpadded (the satellite regression for the
// double-lowering bug).
func TestQGramLowerOnceEquivalence(t *testing.T) {
	legacy := func(q int, pad bool, s string) []string {
		// Frozen pre-fix implementation.
		r := []rune(strings.ToLower(s))
		if pad && len(r) > 0 {
			padded := make([]rune, 0, len(r)+2*(q-1))
			for i := 0; i < q-1; i++ {
				padded = append(padded, '#')
			}
			padded = append(padded, r...)
			for i := 0; i < q-1; i++ {
				padded = append(padded, '$')
			}
			r = padded
		}
		if len(r) < q {
			if len(r) == 0 {
				return nil
			}
			return []string{string(r)}
		}
		out := make([]string, 0, len(r)-q+1)
		for i := 0; i+q <= len(r); i++ {
			out = append(out, string(r[i:i+q]))
		}
		return out
	}
	inputs := []string{
		"", "A", "AB", "ABC", "Hello World", "MIXED case Input",
		"ПрИвЕт", "İstanbul", "ẞharp", "Tele\xffVision", "世界World",
		"already lowered input", "ÅNGSTRÖM", "ǅungla",
	}
	for _, q := range []int{0, 1, 2, 3, 4} {
		for _, pad := range []bool{false, true} {
			tok := QGramTokenizer{Q: q, Pad: pad}
			qq := q
			if qq <= 0 {
				qq = 3
			}
			for _, s := range inputs {
				got := tok.Tokens(s)
				want := legacy(qq, pad, s)
				if len(got) != len(want) {
					t.Fatalf("q=%d pad=%v %q: got %d grams %v, want %d %v", q, pad, s, len(got), got, len(want), want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("q=%d pad=%v %q: gram %d = %q, want %q", q, pad, s, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestCorpusIDFPrecomputed pins the precomputed IDF table against the
// historical per-call formula for seen and unseen tokens, including
// after a JSON round-trip (artifact decode path).
func TestCorpusIDFPrecomputed(t *testing.T) {
	c := NewCorpus([]string{"apple banana", "apple pie", "cherry pie pie", ""})
	check := func(c *Corpus, label string) {
		t.Helper()
		for _, tok := range []string{"apple", "banana", "pie", "cherry", "unseen-token", ""} {
			want := math.Log(float64(c.docs+1) / float64(c.df[tok]+1))
			got := c.IDF(tok)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: IDF(%q) = %v, want %v", label, tok, got, want)
			}
		}
	}
	check(c, "built")
	blob, err := c.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Corpus
	if err := back.UnmarshalJSON(blob); err != nil {
		t.Fatal(err)
	}
	check(&back, "round-tripped")
	if back.NumDocs() != c.NumDocs() {
		t.Fatalf("docs = %d, want %d", back.NumDocs(), c.NumDocs())
	}
}

// TestCompareAllocRatchet is the allocs/op ratchet for the pooled
// per-pair scoring path: steady-state Compare and CompareTokenSets calls
// must stay within a small fixed allocation budget. It runs under plain
// `go test` (and `make bench-ratchet`), so a pooling regression fails
// the build, not just the benchmark harness.
func TestCompareAllocRatchet(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation behaviour differs under the race detector")
	}
	a := "Samsung Galaxy S21 Ultra 128GB Phantom Black"
	b := "Samsung Galaxy S21 Ultra 5G (128 GB) - Schwarz"
	cases := []struct {
		name   string
		budget float64 // average allocs per op; slack for pool refills after GC
		run    func()
	}{
		{"levenshtein", 0.5, func() { (Levenshtein{}).Compare(a, b) }},
		{"damerau_levenshtein", 0.5, func() { (DamerauLevenshtein{}).Compare(a, b) }},
		{"jaro", 0.5, func() { (Jaro{}).Compare(a, b) }},
		{"jaro_winkler", 0.5, func() { (JaroWinkler{}).Compare(a, b) }},
		{"needleman_wunsch", 0.5, func() { (NeedlemanWunsch{}).Compare(a, b) }},
		{"smith_waterman", 0.5, func() { (SmithWaterman{}).Compare(a, b) }},
		{"smith_waterman_gotoh", 0.5, func() { (SmithWatermanGotoh{}).Compare(a, b) }},
		{"lcs_subsequence", 0.5, func() { (LongestCommonSubsequence{}).Compare(a, b) }},
		{"lcs_substring", 0.5, func() { (LongestCommonSubstring{}).Compare(a, b) }},
	}
	dict := NewDict()
	for _, m := range tokenSetMetrics() {
		m := m
		sa, sb := new(TokenSet), new(TokenSet)
		dict.InternValue(m.InternTokenizer(), a, sa)
		dict.InternValue(m.InternTokenizer(), b, sb)
		budget := 0.5
		if m.Name() == "monge_elkan" || m.Name() == "generalized_jaccard" {
			// Inner Jaro-Winkler borrows nested scratch per token pair;
			// keep a little more slack for pool churn.
			budget = 1.0
		}
		cases = append(cases, struct {
			name   string
			budget float64
			run    func()
		}{"tokenset_" + m.Name(), budget, func() { m.CompareTokenSets(sa, sb) }})
	}
	// The fused character kernels and the pre-decoded Monge-Elkan run on
	// one borrowed kernel; after the first call has sized its buffers
	// they allocate nothing.
	{
		k := GetCharKernel()
		ra, rb := []rune(a), []rune(b)
		sa, sb := new(TokenSet), new(TokenSet)
		dict.InternValue(Whitespace{}, a, sa)
		dict.InternValue(Whitespace{}, b, sb)
		ta, tb := tokenRunes(sa), tokenRunes(sb)
		k.Score(ra, rb)
		cases = append(cases, struct {
			name   string
			budget float64
			run    func()
		}{"char_kernels", 0.5, func() { k.Score(ra, rb) }}, struct {
			name   string
			budget float64
			run    func()
		}{"char_monge_elkan", 0.5, func() { k.MongeElkan(sa, sb, ta, tb) }})
	}
	// The q-gram interning path itself must be allocation-free once the
	// dictionary has seen the grams (steady-state record ingestion).
	{
		ts := new(TokenSet)
		dict.InternQGrams(b, 3, true, ts) // warm the dictionary and buffers
		cases = append(cases, struct {
			name   string
			budget float64
			run    func()
		}{"intern_qgrams", 0.5, func() { dict.InternQGrams(b, 3, true, ts) }})
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if avg := testing.AllocsPerRun(200, tc.run); avg > tc.budget {
				t.Fatalf("allocs/op = %.2f, ratchet budget %.2f", avg, tc.budget)
			}
		})
	}
}

// TestInternQGramsMatchesTokens pins the gram-string-free interning path
// against interning the materialized QGramTokenizer output into the same
// dictionary: the id/count multisets must be identical slices.
func TestInternQGramsMatchesTokens(t *testing.T) {
	inputs := []string{
		"", "A", "AB", "ABC", "Hello World", "MIXED case Input",
		"ПрИвЕт", "İstanbul", "ẞharp", "Tele\xffVision", "世界World",
		"already lowered input", "ÅNGSTRÖM", "ǅungla", "ab", "a b a b",
	}
	for _, q := range []int{0, 1, 2, 3, 4} {
		for _, pad := range []bool{false, true} {
			dict := NewDict()
			tok := QGramTokenizer{Q: q, Pad: pad}
			for _, s := range inputs {
				want, got := new(TokenSet), new(TokenSet)
				dict.InternTokens(tok.Tokens(s), want)
				dict.InternQGrams(s, q, pad, got)
				if got.Len() != want.Len() {
					t.Fatalf("q=%d pad=%v %q: Len=%d, want %d", q, pad, s, got.Len(), want.Len())
				}
				if len(got.IDs) != len(want.IDs) {
					t.Fatalf("q=%d pad=%v %q: %d distinct ids, want %d", q, pad, s, len(got.IDs), len(want.IDs))
				}
				for i := range got.IDs {
					if got.IDs[i] != want.IDs[i] || got.Counts[i] != want.Counts[i] {
						t.Fatalf("q=%d pad=%v %q: multiset mismatch at %d: (%d,%d) vs (%d,%d)",
							q, pad, s, i, got.IDs[i], got.Counts[i], want.IDs[i], want.Counts[i])
					}
				}
			}
		}
	}
}

// TestSetArenaMatchesInternValue pins arena-stored sets to sets interned
// on their own: after enough values to span many chunks, every stored
// set still equals a fresh InternValue of its value (so no later carve
// overwrote it), and every carved array is capped at its length (so an
// append cannot reach a neighbour).
func TestSetArenaMatchesInternValue(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dict := NewDict()
	toks := []Tokenizer{Whitespace{}, QGramTokenizer{Q: 3, Pad: true}, QGramTokenizer{Q: 2}, soundexTokenizer{}}
	docs := []string{"", "the the the", "世界 世 世界"}
	for len(docs) < 2000 {
		docs = append(docs, randomTokenDoc(rng, 12))
	}
	var arena SetArena
	sets := make([]TokenSet, len(docs)*len(toks))
	for i, s := range docs {
		for j, tok := range toks {
			arena.InternInto(dict, tok, s, &sets[i*len(toks)+j])
		}
	}
	for i, s := range docs {
		for j, tok := range toks {
			got, want := &sets[i*len(toks)+j], new(TokenSet)
			dict.InternValue(tok, s, want)
			if got.Len() != want.Len() ||
				!slices.Equal(got.Toks, want.Toks) || !slices.Equal(got.Distinct, want.Distinct) ||
				!slices.Equal(got.DistinctIDs, want.DistinctIDs) || !slices.Equal(got.DistinctCounts, want.DistinctCounts) ||
				!slices.Equal(got.IDs, want.IDs) || !slices.Equal(got.Counts, want.Counts) ||
				!slices.Equal(got.idseq, want.idseq) {
				t.Fatalf("%T %q: arena set %+v, want %+v", tok, s, *got, *want)
			}
			if cap(got.Toks) != len(got.Toks) || cap(got.Distinct) != len(got.Distinct) ||
				cap(got.DistinctIDs) != len(got.DistinctIDs) || cap(got.DistinctCounts) != len(got.DistinctCounts) ||
				cap(got.IDs) != len(got.IDs) || cap(got.Counts) != len(got.Counts) || cap(got.idseq) != len(got.idseq) {
				t.Fatalf("%T %q: arena set has an uncapped array: %+v", tok, s, *got)
			}
		}
	}
}

// TestSoundexCodeEquivalence pins the allocation-free per-rune soundex
// encoder against the frozen historical form, which upper-cased the
// whole string first and walked its bytes — including the tricky runes
// where the two could plausibly diverge (ſ→S, µ→Μ, invalid UTF-8).
func TestSoundexCodeEquivalence(t *testing.T) {
	legacy := func(s string) string {
		s = strings.ToUpper(s)
		var first byte
		var rest []byte
		for i := 0; i < len(s); i++ {
			c := s[i]
			if c < 'A' || c > 'Z' {
				if first != 0 {
					break
				}
				continue
			}
			if first == 0 {
				first = c
			} else {
				rest = append(rest, c)
			}
		}
		if first == 0 {
			return ""
		}
		code := []byte{first}
		prev := soundexDigit(first)
		for _, c := range rest {
			d := soundexDigit(c)
			switch {
			case d == 0:
				if c != 'H' && c != 'W' {
					prev = 0
				}
			case d != prev:
				code = append(code, '0'+d)
				prev = d
			}
			if len(code) == 4 {
				break
			}
		}
		for len(code) < 4 {
			code = append(code, '0')
		}
		return string(code)
	}
	inputs := []string{
		"", "Robert", "Tymczak", "Pfister", "Honeyman", "Kopcke", "Koepcke",
		"  two words here", "123 Main", "ſharp", "µmeter", "Kſ", "世界",
		"Tele\xffVision", "ÅNGSTRÖM", "o'brien", "McDONALD", "a",
	}
	for _, s := range inputs {
		if got, want := soundexCode(s), legacy(s); got != want {
			t.Fatalf("soundexCode(%q) = %q, legacy = %q", s, got, want)
		}
	}
}

// TestPooledCompareMatchesGolden re-runs a few fixed-value checks after
// hammering the pool from many goroutines, guarding against scratch
// state leaking between concurrent Compare calls.
func TestPooledCompareConcurrent(t *testing.T) {
	type pairCase struct {
		m    Metric
		a, b string
	}
	var cases []pairCase
	rng := rand.New(rand.NewSource(7))
	mets := All()
	for i := 0; i < 64; i++ {
		cases = append(cases, pairCase{
			m: mets[rng.Intn(len(mets))],
			a: randomTokenDoc(rng, 6),
			b: randomTokenDoc(rng, 6),
		})
	}
	want := make([]float64, len(cases))
	for i, c := range cases {
		want[i] = c.m.Compare(c.a, c.b)
	}
	const goroutines = 8
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			for iter := 0; iter < 50; iter++ {
				for i, c := range cases {
					if got := c.m.Compare(c.a, c.b); math.Float64bits(got) != math.Float64bits(want[i]) {
						errc <- fmt.Errorf("%s(%q,%q) = %v, want %v", c.m.Name(), c.a, c.b, got, want[i])
						return
					}
				}
			}
			errc <- nil
		}()
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}
