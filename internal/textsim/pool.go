package textsim

import "sync"

// Scratch-buffer pooling for the per-pair similarity hot path.
//
// The feature extractor applies 21 metrics to every attribute pair of
// every candidate pair; before pooling, each edit-distance style metric
// allocated two rune conversions plus two or three DP rows per call, and
// the Jaro family allocated two match-flag slices — the dominant
// allocation source in profile after tokenization. A scratch value holds
// every buffer one Compare call can need; callers borrow one from a
// sync.Pool, slice what they need, and return it.
//
// Ownership rule: a scratch is owned by exactly one Compare call from
// get to put. Nested metric calls (Monge-Elkan and soft-TFIDF invoke
// Jaro-Winkler per token pair) borrow their *own* scratch — the pool
// hands them a second value — so buffers are never shared downward.
// Nothing borrowed from a scratch may escape the call that borrowed it;
// every buffer is (re)initialized by its borrower before use, so a
// recycled value can never leak state between pairs.
type scratch struct {
	ra, rb []rune    // rune conversions of the two inputs
	ia, ib []int     // integer DP rows (Levenshtein, LCS, Needleman-Wunsch)
	ic     []int     // third integer row (Damerau transposition window)
	fa, fb []float64 // float DP rows (Smith-Waterman)
	ba, bb []bool    // match flags (Jaro), first-seen marks (token interning)
	bs     []byte    // byte workspace (q-gram interning)
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch  { return scratchPool.Get().(*scratch) }
func putScratch(s *scratch) { scratchPool.Put(s) }

// grow returns buf resized to hold n elements, reallocating only when
// capacity is short. Contents are unspecified; callers overwrite.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n, n+n/2+8)
	}
	return buf[:n]
}

// appendRunes decodes s into buf[:0], equivalent to []rune(s) (invalid
// UTF-8 bytes decode to U+FFFD in both forms) without allocating when
// buf has capacity.
func appendRunes(buf []rune, s string) []rune {
	buf = buf[:0]
	for _, r := range s {
		buf = append(buf, r)
	}
	return buf
}

// runesInto fills dst from s, growing it as needed, and returns the
// slice holding exactly the runes of s.
func runesInto(dst []rune, s string) []rune {
	if cap(dst) < len(s) {
		dst = make([]rune, 0, len(s)+8)
	}
	return appendRunes(dst, s)
}
