package textsim

import (
	"math/bits"
	"sync"
)

// Fused character kernels. The feature extractor scores every aligned
// attribute pair with nine character metrics plus Monge-Elkan. Run one
// by one through Compare, each metric re-decodes both strings and makes
// its own O(n·m) pass over the same rune pair. The kernels here take
// runes the caller decoded once per value and share the work:
//
//   - a bit-vector pass over 64-rune words yields Levenshtein, Damerau
//     (OSA), LCS-subsequence and LCS-substring (bitPass);
//   - Jaro scans the same match masks, and Jaro-Winkler is derived from
//     that value (jaroBits);
//   - one integer DP pass yields Needleman-Wunsch and, in half-units,
//     Smith-Waterman and Smith-Waterman-Gotoh (alignPass);
//   - Monge-Elkan runs over pre-decoded token runes and scores each token
//     pair at most once (MongeElkan).
//
// Every output is bit-identical to the corresponding Compare, which
// stays the reference (TestCharKernelsMatchCompare, FuzzCharKernels):
// the distances and lengths are the same integers the per-metric DPs
// compute, fed into the same final expressions; every Smith-Waterman
// cell is a multiple of 0.5, so running the DP in half-units and scaling
// the best cell by 0.5 reproduces the float DP exactly; Jaro's match
// flags are the ones jaroSim sets, and Jaro-Winkler goes through the
// same winklerBoost as JaroWinkler.Compare.

// charFamily lists the fused character metrics in CharScores slot
// order.
var charFamily = [NumCharMetrics]Metric{
	Levenshtein{},
	DamerauLevenshtein{},
	Jaro{},
	JaroWinkler{},
	NeedlemanWunsch{},
	SmithWaterman{},
	SmithWatermanGotoh{},
	LongestCommonSubsequence{},
	LongestCommonSubstring{},
}

// NumCharMetrics is the number of metrics CharKernel.Score fuses.
const NumCharMetrics = 9

// CharScores holds one value pair's score under every fused character
// metric, in the slot order Levenshtein, DamerauLevenshtein, Jaro,
// JaroWinkler, NeedlemanWunsch, SmithWaterman, SmithWatermanGotoh,
// LongestCommonSubsequence, LongestCommonSubstring (see CharSlot).
type CharScores [NumCharMetrics]float64

// CharSlot returns m's slot in CharScores, or -1 when Score does not
// compute m.
func CharSlot(m Metric) int {
	for i, c := range charFamily {
		if m == c {
			return i
		}
	}
	return -1
}

// CharKernel is the scratch the fused kernels run on. Like a TokenSet it
// is pooled (GetCharKernel/Release) and owned by one goroutine at a
// time; every buffer is reinitialized by the kernel that uses it.
type CharKernel struct {
	sc scratch // Jaro match flags for Monge-Elkan's inner scores

	// Pattern-match masks of the bit-parallel pass: slot s holds, per
	// 64-rune word of the pattern, the positions where the pattern has
	// the rune mapped to s. Slot 0 is all zeros (a rune the pattern
	// lacks). ASCII runes map through ascii; the rest through the
	// parallel wide/wideSlot lists. tslot is each text rune's slot.
	ascii           [128]int32
	wide            []rune
	wideSlot        []int32
	peq             []uint64
	tslot           []int32
	lev, osa, lcs   []uint64 // per-word bit-vector state, see bitPass
	aflag, bflag    []uint64 // Jaro match flags, see jaroBits
	runPrev, runCur []int32  // common-substring run lengths, see bitPass

	// Two DP rows of the alignment pass.
	prev, cur []alignCell

	// Monge-Elkan's best inner score per token of each side.
	rowBest, colBest []float64
}

// alignCell is one DP cell of the alignment pass, in half-units for
// the two local alignments.
type alignCell struct{ nw, sw, swg int32 }

var charKernelPool = sync.Pool{New: func() any { return new(CharKernel) }}

// GetCharKernel borrows a CharKernel from the package pool.
func GetCharKernel() *CharKernel { return charKernelPool.Get().(*CharKernel) }

// Release returns k to the pool; the caller must not use k afterwards.
func (k *CharKernel) Release() { charKernelPool.Put(k) }

// Score computes every fused character metric of the pair: each slot is
// bit-identical to its metric's Compare of the two strings a and b were
// decoded from (as []rune(s) decodes them).
func (k *CharKernel) Score(a, b []rune) CharScores {
	var s CharScores
	if len(a) == 0 || len(b) == 0 {
		if len(a) == 0 && len(b) == 0 {
			for i := range s {
				s[i] = 1
			}
		}
		return s
	}
	lev, osa, lcs, sub := k.bitPass(b, a)
	j := k.jaroBits(a, b)
	nw, sw, swg := k.alignPass(a, b)
	longer := float64(max(len(a), len(b)))
	shorter := float64(min(len(a), len(b)))
	s[0] = 1 - float64(lev)/longer
	s[1] = 1 - float64(osa)/longer
	s[2] = j
	s[3] = winklerBoost(j, commonPrefix(a, b))
	if nw > 0 {
		s[4] = float64(nw) / longer
	}
	s[5] = float64(sw) * 0.5 / shorter
	s[6] = float64(swg) * 0.5 / shorter
	s[7] = float64(lcs) / longer
	s[8] = float64(sub) / longer
	return s
}

// slotOf returns r's pattern-match slot (0 when the pattern lacks r).
func (k *CharKernel) slotOf(r rune) int32 {
	if uint32(r) < 128 {
		return k.ascii[r]
	}
	for i, w := range k.wide {
		if w == r {
			return k.wideSlot[i]
		}
	}
	return 0
}

// bitPass computes the Levenshtein and optimal-string-alignment
// distances and the longest common subsequence and substring lengths of
// pattern p and text t (both non-empty) with bit-parallel row updates:
// each text rune advances every 64-rune word of the pattern in O(1)
// word operations instead of 64 DP cells.
//
//   - Levenshtein is Myers' bit-vector algorithm in Hyyrö's block form:
//     per word the vertical delta vectors VP/VN, and the horizontal
//     deltas carried word to word.
//   - OSA is Hyyrö's extension of the same recurrence with the
//     transposition vector TR, which needs the previous text rune's
//     match mask and diagonal vector D0.
//   - LCS is the Allison-Dix/Hyyrö recurrence S' = (S + (S&M)) | (S -
//     (S&M)) with the addition carried across words; the LCS length is
//     the number of zero bits.
//   - The longest common substring walks only the set bits of each row's
//     match mask: a match extends the run ending one rune earlier on
//     both sides.
//
// All four are exact integer computations of the DPs the per-metric
// Compare functions run, so the final scores are bit-identical.
func (k *CharKernel) bitPass(p, t []rune) (lev, osa, lcs, sub int) {
	words := (len(p) + 63) / 64
	// Assign slots to the pattern's distinct runes.
	nslot := int32(0)
	for _, r := range p {
		if k.slotOf(r) != 0 {
			continue
		}
		nslot++
		if uint32(r) < 128 {
			k.ascii[r] = nslot
		} else {
			k.wide = append(k.wide, r)
			k.wideSlot = append(k.wideSlot, nslot)
		}
	}
	k.peq = grow(k.peq, (int(nslot)+1)*words)
	peq := k.peq
	clear(peq)
	for j, r := range p {
		peq[int(k.slotOf(r))*words+j/64] |= 1 << (j % 64)
	}
	k.tslot = grow(k.tslot, len(t))
	tslot := k.tslot
	for i, r := range t {
		tslot[i] = k.slotOf(r)
	}
	// The slot tables are per pattern; reset them for the next call.
	for _, r := range p {
		if uint32(r) < 128 {
			k.ascii[r] = 0
		}
	}
	k.wide, k.wideSlot = k.wide[:0], k.wideSlot[:0]

	// State per word: Levenshtein VP, VN; OSA VP, VN, D0 and the previous
	// text rune's match mask; the LCS vector S.
	k.lev = grow(k.lev, 2*words)
	k.osa = grow(k.osa, 4*words)
	k.lcs = grow(k.lcs, words)
	lvp, lvn := k.lev[:words], k.lev[words:2*words]
	ovp, ovn := k.osa[:words], k.osa[words:2*words]
	od0, opm := k.osa[2*words:3*words], k.osa[3*words:4*words]
	S := k.lcs[:words]
	for w := range lvp {
		lvp[w], lvn[w] = ^uint64(0), 0
		ovp[w], ovn[w], od0[w], opm[w] = ^uint64(0), 0, 0, 0
		S[w] = ^uint64(0)
	}
	k.runPrev = grow(k.runPrev, len(p))
	k.runCur = grow(k.runCur, len(p))
	runPrev, runCur := k.runPrev, k.runCur
	prevPM := peq[:words] // slot 0: no matches before the first row

	// The distances track the DP's bottom row: the horizontal delta out
	// of the pattern's last rune, bit lastShift of the last word.
	last, lastShift := words-1, uint((len(p)-1)%64)
	lev, osa = len(p), len(p)
	best := int32(0)
	for _, s := range tslot {
		pm := peq[int(s)*words : int(s)*words+words]
		lhp, lhn := uint64(1), uint64(0) // horizontal deltas into word w
		ohp, ohn := uint64(1), uint64(0)
		// Word w-1's old OSA D0 and current mask, the LCS carry, and word
		// w-1's previous-row mask.
		var d0Below, pmBelow, carry, prevBelow uint64
		for w, x := range pm {
			// Levenshtein.
			vp, vn := lvp[w], lvn[w]
			xh := x | lhn
			d0 := (((xh & vp) + vp) ^ vp) | xh | vn
			hp := vn | ^(d0 | vp)
			hn := d0 & vp
			if w == last {
				lev += int(hp>>lastShift&1) - int(hn>>lastShift&1)
			}
			hp, lhp = hp<<1|lhp, hp>>63
			hn, lhn = hn<<1|lhn, hn>>63
			lvp[w], lvn[w] = hn|^(d0|hp), hp&d0
			// OSA: Levenshtein plus the transposition vector.
			vp, vn = ovp[w], ovn[w]
			tr := (^od0[w]&x<<1 | (^d0Below&pmBelow)>>63) & opm[w]
			d0Below, pmBelow = od0[w], x
			xh = x | ohn
			d0 = (((xh & vp) + vp) ^ vp) | xh | vn | tr
			hp = vn | ^(d0 | vp)
			hn = d0 & vp
			if w == last {
				osa += int(hp>>lastShift&1) - int(hn>>lastShift&1)
			}
			hp, ohp = hp<<1|ohp, hp>>63
			hn, ohn = hn<<1|ohn, hn>>63
			ovp[w], ovn[w], od0[w], opm[w] = hn|^(d0|hp), hp&d0, d0, x
			// LCS subsequence.
			sw := S[w]
			u := sw & x
			var sum uint64
			sum, carry = bits.Add64(sw, u, carry)
			S[w] = sum | (sw - u)
			// LCS substring: a match whose diagonal predecessor matched
			// too extends that run; any other match starts one.
			cont := x & (prevPM[w]<<1 | prevBelow>>63)
			prevBelow = prevPM[w]
			for m := x &^ cont; m != 0; m &= m - 1 {
				runCur[w*64+bits.TrailingZeros64(m)] = 1
				best = max(best, 1)
			}
			for m := cont; m != 0; m &= m - 1 {
				j := w*64 + bits.TrailingZeros64(m)
				runCur[j] = runPrev[j-1] + 1
				best = max(best, runCur[j])
			}
		}
		prevPM = pm
		runPrev, runCur = runCur, runPrev
	}
	for w, v := range S {
		if w == last && len(p)%64 != 0 {
			v |= ^uint64(0) << (len(p) % 64)
		}
		lcs += bits.OnesCount64(^v)
	}
	return lev, osa, lcs, int(best)
}

// jaroBits is jaroSim(a, b) over the pattern-match masks bitPass just
// built for pattern b and text a. Each rune of a takes the lowest
// unflagged position of b inside its window holding the same rune —
// found with word operations on the masks instead of a scan — so the
// match flags, and with them the match and transposition counts, are
// exactly the ones jaroSim computes.
func (k *CharKernel) jaroBits(a, b []rune) float64 {
	words := (len(b) + 63) / 64
	k.aflag = grow(k.aflag, (len(a)+63)/64)
	k.bflag = grow(k.bflag, words)
	aflag, bflag := k.aflag, k.bflag
	clear(aflag)
	clear(bflag)
	window := jaroWindow(len(a), len(b))
	matches := 0
	for i, s := range k.tslot[:len(a)] {
		lo, hi := max(0, i-window), min(i+window+1, len(b))
		if s == 0 || lo >= hi {
			continue
		}
		pm := k.peq[int(s)*words : int(s)*words+words]
		for w := lo / 64; w <= (hi-1)/64; w++ {
			cand := pm[w] &^ bflag[w]
			if w == lo/64 {
				cand &= ^uint64(0) << (lo % 64)
			}
			if w == (hi-1)/64 {
				cand &= ^uint64(0) >> (63 - (hi-1)%64)
			}
			if cand != 0 {
				bflag[w] |= cand & -cand
				aflag[i/64] |= 1 << (i % 64)
				matches++
				break
			}
		}
	}
	if matches == 0 {
		return 0
	}
	// Pair the matched runes of a and b in order and count mismatches.
	trans := 0
	bw, rest := 0, bflag[0]
	for aw, af := range aflag {
		for ; af != 0; af &= af - 1 {
			for rest == 0 {
				bw++
				rest = bflag[bw]
			}
			i := aw*64 + bits.TrailingZeros64(af)
			j := bw*64 + bits.TrailingZeros64(rest)
			rest &= rest - 1
			if a[i] != b[j] {
				trans++
			}
		}
	}
	return jaroScore(matches, trans, len(a), len(b))
}

// alignPass runs Needleman-Wunsch (match +1, mismatch -1, gap -1),
// Smith-Waterman (gap -1) and Smith-Waterman-Gotoh (gap -0.5) over a×b
// (both non-empty) in one DP and returns the global score and the two
// best local cells. The local alignments run in integer half-units —
// match +2, mismatch -2, gaps -2 and -1 — so every cell is exact.
func (k *CharKernel) alignPass(a, b []rune) (nw, sw, swg int) {
	m := len(b)
	k.prev = grow(k.prev, m+1)
	k.cur = grow(k.cur, m+1)
	prev, cur := k.prev, k.cur
	for j := range prev {
		prev[j] = alignCell{nw: int32(-j)}
	}
	var bestSW, bestSWG int32
	for i, ai := range a {
		cur[0] = alignCell{nw: int32(-i - 1)}
		bestSW, bestSWG = alignRow(prev, cur, b, ai, bestSW, bestSWG)
		prev, cur = cur, prev
	}
	return int(prev[m].nw), int(bestSW), int(bestSWG)
}

// alignRow fills cur[1:] from prev for text rune ai, carrying the left
// neighbour in registers, and folds the row into the two local bests.
// It is a function of its own, with every row resliced to one length,
// so the compiler keeps the loop free of bounds checks and spills.
func alignRow(prev, cur []alignCell, b []rune, ai rune, bestSW, bestSWG int32) (int32, int32) {
	out := cur[1 : len(b)+1]
	diag := prev[:len(out)]
	upper := prev[1 : len(out)+1]
	b = b[:len(out)]
	lnw, lsw, lswg := cur[0].nw, int32(0), int32(0)
	for j := range out {
		s := int32(-1)
		if ai == b[j] {
			s = 1
		}
		d, up := diag[j], upper[j]
		lnw = max(d.nw+s, up.nw-1, lnw-1)
		s += s
		lsw = max(d.sw+s, up.sw-2, 0, lsw-2)
		lswg = max(d.swg+s, up.swg-1, 0, lswg-1)
		bestSW = max(bestSW, lsw)
		bestSWG = max(bestSWG, lswg)
		out[j] = alignCell{lnw, lsw, lswg}
	}
	return bestSW, bestSWG
}

// commonPrefix returns the Jaro-Winkler prefix length: shared leading
// runes, at most four.
func commonPrefix(a, b []rune) int {
	p := 0
	for p < min(4, len(a), len(b)) && a[p] == b[p] {
		p++
	}
	return p
}

// winklerBoost lifts Jaro similarity j by the shared-prefix bonus with
// the standard scaling factor 0.1.
func winklerBoost(j float64, prefix int) float64 {
	return j + float64(prefix)*0.1*(1-j)
}

// MongeElkan is MongeElkan.CompareTokenSets over pre-decoded tokens:
// ra[i] and rb[j] are the decoded runes of a.Toks[i] and b.Toks[j]. The
// string path scores every token pair twice, once per direction; here
// each pair is scored at most once, because of two facts:
//
//   - Jaro-Winkler is symmetric bit for bit. Jaro's greedy scan matches
//     each rune's occurrences independently of every other rune, and for
//     one rune the first-free-in-window rule pairs the same positions
//     whichever side drives the scan (by induction on the leftmost
//     occurrence on each side: the two are paired by both scans when
//     within the window, and otherwise the farther-left one is unmatched
//     by both). Equal matched positions give equal match and
//     transposition counts, and the score sums them commutatively. One
//     inner score therefore serves both directions.
//   - A token whose interned id occurs on the other side scores exactly
//     1: Jaro-Winkler of a token with itself is exactly 1 and never
//     exceeds 1, so 1 is the maximum the string path finds. A pair of
//     two such tokens is not scored at all.
//
// Each direction still sums its per-token maxima in token order, so the
// result is bit-identical to the string path.
func (k *CharKernel) MongeElkan(a, b *TokenSet, ra, rb [][]rune) float64 {
	if a.Len() == 0 && b.Len() == 0 {
		return 1
	}
	if a.Len() == 0 || b.Len() == 0 {
		return 0
	}
	k.rowBest = grow(k.rowBest, len(ra))
	k.colBest = grow(k.colBest, len(rb))
	rowBest, colBest := k.rowBest, k.colBest
	for i := range ra {
		rowBest[i] = 0
		if findInt32(b.IDs, a.idseq[i]) >= 0 {
			rowBest[i] = 1
		}
	}
	for j := range rb {
		colBest[j] = 0
		if findInt32(a.IDs, b.idseq[j]) >= 0 {
			colBest[j] = 1
		}
	}
	for i, x := range ra {
		for j, y := range rb {
			if rowBest[i] == 1 && colBest[j] == 1 {
				continue
			}
			s := winklerBoost(jaroSim(&k.sc, x, y), commonPrefix(x, y))
			if s > rowBest[i] {
				rowBest[i] = s
			}
			if s > colBest[j] {
				colBest[j] = s
			}
		}
	}
	var sumA, sumB float64
	for _, v := range rowBest {
		sumA += v
	}
	for _, v := range colBest {
		sumB += v
	}
	return (sumA/float64(len(ra)) + sumB/float64(len(rb))) / 2
}
