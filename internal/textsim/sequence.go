package textsim

// Subsequence / substring / q-gram profile metrics.

// LongestCommonSubsequence is LCS length normalized by the longer string.
type LongestCommonSubsequence struct{}

// Name implements Metric.
func (LongestCommonSubsequence) Name() string { return "lcs_subsequence" }

// Compare implements Metric.
func (LongestCommonSubsequence) Compare(a, b string) float64 {
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
	clear(prev)
	cur[0] = 0
	for i := 1; i <= len(ra); i++ {
		for j := 1; j <= len(rb); j++ {
			if ra[i-1] == rb[j-1] {
				cur[j] = prev[j-1] + 1
			} else {
				cur[j] = max(prev[j], cur[j-1])
			}
		}
		prev, cur = cur, prev
	}
	return float64(prev[len(rb)]) / float64(max(len(ra), len(rb)))
}

// LongestCommonSubstring is the length of the longest contiguous shared
// run normalized by the longer string.
type LongestCommonSubstring struct{}

// Name implements Metric.
func (LongestCommonSubstring) Name() string { return "lcs_substring" }

// Compare implements Metric.
func (LongestCommonSubstring) Compare(a, b string) float64 {
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
	clear(prev)
	cur[0] = 0
	best := 0
	for i := 1; i <= len(ra); i++ {
		for j := 1; j <= len(rb); j++ {
			if ra[i-1] == rb[j-1] {
				cur[j] = prev[j-1] + 1
				if cur[j] > best {
					best = cur[j]
				}
			} else {
				cur[j] = 0
			}
		}
		prev, cur = cur, prev
	}
	return float64(best) / float64(max(len(ra), len(rb)))
}

// QGram compares padded character trigram profiles: 1 minus the L1
// distance between the profiles divided by the total number of trigrams.
type QGram struct{}

// Name implements Metric.
func (QGram) Name() string { return "qgram" }

// Compare implements Metric.
func (QGram) Compare(a, b string) float64 {
	tok := QGramTokenizer{Q: 3, Pad: true}
	ta, tb := tok.Tokens(a), tok.Tokens(b)
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	ca, cb := counts(ta), counts(tb)
	diff := 0
	for g, na := range ca {
		diff += abs(na - cb[g])
	}
	for g, nb := range cb {
		if _, ok := ca[g]; !ok {
			diff += nb
		}
	}
	return 1 - float64(diff)/float64(len(ta)+len(tb))
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
