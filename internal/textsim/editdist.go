package textsim

// Character-level (edit-distance style) similarity metrics.
//
// Every metric here runs on pooled scratch buffers (pool.go): the rune
// conversions and DP rows are borrowed for the duration of one Compare
// call and fully (re)initialized before use, so the pooled path is
// bit-identical to the historical make-per-call implementation. These
// Compare functions are the reference the fused kernels (charkernel.go)
// are pinned to.

// Levenshtein is edit-distance similarity: 1 - dist/max(len(a), len(b)).
type Levenshtein struct{}

// Name implements Metric.
func (Levenshtein) Name() string { return "levenshtein" }

// Compare implements Metric.
func (Levenshtein) Compare(a, b string) float64 {
	sc := getScratch()
	defer putScratch(sc)
	sc.ra = runesInto(sc.ra, a)
	sc.rb = runesInto(sc.rb, b)
	ra, rb := sc.ra, sc.rb
	if len(ra) == 0 && len(rb) == 0 {
		return 1
	}
	d := levenshteinDist(sc, ra, rb)
	return 1 - float64(d)/float64(max(len(ra), len(rb)))
}

// levenshteinDist computes the classic edit distance with two rolling rows
// borrowed from sc.
func levenshteinDist(sc *scratch, a, b []rune) int {
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	sc.ia = grow(sc.ia, len(b)+1)
	sc.ib = grow(sc.ib, len(b)+1)
	prev, cur := sc.ia, sc.ib
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// DamerauLevenshtein is like Levenshtein but also counts transposition of
// two adjacent characters as a single edit (the common typo class in
// product titles).
type DamerauLevenshtein struct{}

// Name implements Metric.
func (DamerauLevenshtein) Name() string { return "damerau_levenshtein" }

// Compare implements Metric.
func (DamerauLevenshtein) Compare(a, b string) float64 {
	sc := getScratch()
	defer putScratch(sc)
	sc.ra = runesInto(sc.ra, a)
	sc.rb = runesInto(sc.rb, b)
	ra, rb := sc.ra, sc.rb
	if len(ra) == 0 && len(rb) == 0 {
		return 1
	}
	if len(ra) == 0 || len(rb) == 0 {
		return 0
	}
	// Three rolling rows: i-2, i-1, i.
	n := len(rb) + 1
	sc.ia = grow(sc.ia, n)
	sc.ib = grow(sc.ib, n)
	sc.ic = grow(sc.ic, n)
	r2, r1, r0 := sc.ia, sc.ib, sc.ic
	for j := 0; j < n; j++ {
		r1[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		r0[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			r0[j] = min(r1[j]+1, r0[j-1]+1, r1[j-1]+cost)
			if i > 1 && j > 1 && ra[i-1] == rb[j-2] && ra[i-2] == rb[j-1] {
				r0[j] = min(r0[j], r2[j-2]+1)
			}
		}
		r2, r1, r0 = r1, r0, r2
	}
	d := r1[len(rb)]
	return 1 - float64(d)/float64(max(len(ra), len(rb)))
}

// Jaro measures common characters within a sliding window plus
// transpositions; well-suited to short strings such as person names.
type Jaro struct{}

// Name implements Metric.
func (Jaro) Name() string { return "jaro" }

// Compare implements Metric.
func (Jaro) Compare(a, b string) float64 {
	sc := getScratch()
	defer putScratch(sc)
	sc.ra = runesInto(sc.ra, a)
	sc.rb = runesInto(sc.rb, b)
	return jaroSim(sc, sc.ra, sc.rb)
}

// jaroSim computes Jaro similarity using sc's match-flag buffers; the
// flags are cleared here because the algorithm reads them before first
// write, unlike the DP rows above which are fully written first.
func jaroSim(sc *scratch, a, b []rune) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	window := jaroWindow(len(a), len(b))
	sc.ba = grow(sc.ba, len(a))
	sc.bb = grow(sc.bb, len(b))
	aMatch, bMatch := sc.ba, sc.bb
	clear(aMatch)
	clear(bMatch)
	matches := 0
	for i := range a {
		lo := max(0, i-window)
		hi := min(i+window+1, len(b))
		for j := lo; j < hi; j++ {
			if !bMatch[j] && a[i] == b[j] {
				aMatch[i], bMatch[j] = true, true
				matches++
				break
			}
		}
	}
	if matches == 0 {
		return 0
	}
	// Count transpositions among matched characters.
	trans := 0
	j := 0
	for i := range a {
		if !aMatch[i] {
			continue
		}
		for !bMatch[j] {
			j++
		}
		if a[i] != b[j] {
			trans++
		}
		j++
	}
	return jaroScore(matches, trans, len(a), len(b))
}

// jaroWindow is how far apart (in runes) two equal runes of strings of
// lengths la and lb may sit and still count as a Jaro match.
func jaroWindow(la, lb int) int {
	return max(0, max(la, lb)/2-1)
}

// jaroScore is Jaro similarity from its match and transposition counts
// (matches > 0).
func jaroScore(matches, trans, la, lb int) float64 {
	m := float64(matches)
	return (m/float64(la) + m/float64(lb) + (m-float64(trans)/2)/m) / 3
}

// JaroWinkler boosts Jaro for strings sharing a common prefix (up to 4
// runes) with the standard scaling factor 0.1. It is one of the three
// metrics supported by the rule-based learner (§3).
type JaroWinkler struct{}

// Name implements Metric.
func (JaroWinkler) Name() string { return "jaro_winkler" }

// Compare implements Metric.
func (JaroWinkler) Compare(a, b string) float64 {
	sc := getScratch()
	defer putScratch(sc)
	sc.ra = runesInto(sc.ra, a)
	sc.rb = runesInto(sc.rb, b)
	return winklerBoost(jaroSim(sc, sc.ra, sc.rb), commonPrefix(sc.ra, sc.rb))
}

// NeedlemanWunsch is global-alignment similarity with match +1,
// mismatch -1, gap -1, normalized so that identical strings score 1 and
// strings with a non-positive alignment score 0.
type NeedlemanWunsch struct{}

// Name implements Metric.
func (NeedlemanWunsch) Name() string { return "needleman_wunsch" }

// Compare implements Metric.
func (NeedlemanWunsch) Compare(a, b string) float64 {
	sc := getScratch()
	defer putScratch(sc)
	sc.ra = runesInto(sc.ra, a)
	sc.rb = runesInto(sc.rb, b)
	ra, rb := sc.ra, sc.rb
	if len(ra) == 0 && len(rb) == 0 {
		return 1
	}
	if len(ra) == 0 || len(rb) == 0 {
		return 0
	}
	sc.ia = grow(sc.ia, len(rb)+1)
	sc.ib = grow(sc.ib, len(rb)+1)
	prev, cur := sc.ia, sc.ib
	for j := range prev {
		prev[j] = -j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = -i
		for j := 1; j <= len(rb); j++ {
			sub := -1
			if ra[i-1] == rb[j-1] {
				sub = 1
			}
			cur[j] = max(prev[j-1]+sub, prev[j]-1, cur[j-1]-1)
		}
		prev, cur = cur, prev
	}
	score := prev[len(rb)]
	if score <= 0 {
		return 0
	}
	return float64(score) / float64(max(len(ra), len(rb)))
}

// SmithWaterman is local-alignment similarity with match +1, mismatch -1,
// gap -1, normalized by the best possible local score min(len(a), len(b)).
// It rewards strings sharing a long common region regardless of
// surrounding noise (e.g. a model number embedded in a long title).
type SmithWaterman struct{}

// Name implements Metric.
func (SmithWaterman) Name() string { return "smith_waterman" }

// Compare implements Metric.
func (SmithWaterman) Compare(a, b string) float64 {
	return smithWatermanStrings(a, b, -1, -1)
}

// SmithWatermanGotoh is Smith-Waterman with a cheaper linear gap: match
// +1, mismatch -1 and -0.5 per gap rune, with no separate opening
// penalty, normalized like SmithWaterman. The cheap gaps tolerate longer
// gaps such as dropped words.
type SmithWatermanGotoh struct{}

// Name implements Metric.
func (SmithWatermanGotoh) Name() string { return "smith_waterman_gotoh" }

// Compare implements Metric.
func (SmithWatermanGotoh) Compare(a, b string) float64 {
	return smithWatermanStrings(a, b, -0.5, -1)
}

func smithWatermanStrings(a, b string, gap, mismatch float64) float64 {
	sc := getScratch()
	defer putScratch(sc)
	sc.ra = runesInto(sc.ra, a)
	sc.rb = runesInto(sc.rb, b)
	return smithWaterman(sc, sc.ra, sc.rb, gap, mismatch)
}

// smithWaterman computes normalized local alignment with the given gap and
// mismatch penalties (match is +1).
func smithWaterman(sc *scratch, a, b []rune, gap, mismatch float64) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	sc.fa = grow(sc.fa, len(b)+1)
	sc.fb = grow(sc.fb, len(b)+1)
	prev, cur := sc.fa, sc.fb
	for j := range prev {
		prev[j] = 0
	}
	best := 0.0
	for i := 1; i <= len(a); i++ {
		cur[0] = 0
		for j := 1; j <= len(b); j++ {
			sub := mismatch
			if a[i-1] == b[j-1] {
				sub = 1
			}
			v := prev[j-1] + sub
			if w := prev[j] + gap; w > v {
				v = w
			}
			if w := cur[j-1] + gap; w > v {
				v = w
			}
			if v < 0 {
				v = 0
			}
			cur[j] = v
			if v > best {
				best = v
			}
		}
		prev, cur = cur, prev
	}
	return best / float64(min(len(a), len(b)))
}
