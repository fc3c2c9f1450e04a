package textsim

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// checkCharKernels pins every fused output bit-identical to its metric's
// Compare on one pair: CharKernel.Score over []rune-decoded values, and
// CharKernel.MongeElkan over interned word tokens and their decoded
// runes.
func checkCharKernels(t *testing.T, k *CharKernel, dict *Dict, a, b string) {
	t.Helper()
	got := k.Score([]rune(a), []rune(b))
	for i, m := range charFamily {
		if want := m.Compare(a, b); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("%s(%q, %q): fused=%v Compare=%v", m.Name(), a, b, got[i], want)
		}
	}
	sa, sb := new(TokenSet), new(TokenSet)
	dict.InternValue(Whitespace{}, a, sa)
	dict.InternValue(Whitespace{}, b, sb)
	me := k.MongeElkan(sa, sb, tokenRunes(sa), tokenRunes(sb))
	if want := (MongeElkan{}).Compare(a, b); math.Float64bits(me) != math.Float64bits(want) {
		t.Fatalf("monge_elkan(%q, %q): fused=%v Compare=%v", a, b, me, want)
	}
}

func tokenRunes(ts *TokenSet) [][]rune {
	out := make([][]rune, len(ts.Toks))
	for i, tok := range ts.Toks {
		out[i] = []rune(tok)
	}
	return out
}

// runesOf returns an n-rune string cycling through alphabet.
func runesOf(alphabet string, n int) string {
	rs := []rune(alphabet)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteRune(rs[i%len(rs)])
	}
	return sb.String()
}

// TestCharKernelsMatchCompare pins the fused character kernels to the
// per-metric reference path on the shapes where they could diverge:
// empty and one-rune values, lengths around one and two 64-rune words,
// invalid UTF-8 (decoded to U+FFFD by both paths), multi-byte and
// case-variant runes, identical strings, and repeated or shared tokens
// (the Monge-Elkan equal-id rule).
func TestCharKernelsMatchCompare(t *testing.T) {
	values := []string{
		"", "a", "b", "A", "é", "世",
		"\xff", "a\xffb", "\xc3", "ab\xe4\xb8", "\xff\xfe\xfd",
		"Téléphone черный", "TÉLÉPHONE ЧЕРНЫЙ", "téléphone", "世界 世界 pro",
		"ab", "ba", "abcd", "acbd", "ca", "ac", "abcdef", "abcdfe",
		"MARTHA", "MARHTA", "DIXON", "DICKSONX", "DWAYNE", "DUANE",
		"samsung galaxy s21", "samsung samsung galaxy", "galaxy samsung s21 s21",
		"apple appel apples", "the the the", "a b a b", "  ", "x-y,z",
		"Samsung Galaxy S21 Ultra 128GB Phantom Black",
		"Samsung Galaxy S21 Ultra 5G (128 GB) - Schwarz",
	}
	for _, n := range []int{63, 64, 65, 128, 129} {
		values = append(values,
			runesOf("abcdefghij", n),
			runesOf("abcdefghik", n),
			runesOf("ab cd ef", n),
			runesOf("é世aB", n),
			runesOf("a", n))
	}
	k := GetCharKernel()
	defer k.Release()
	dict := NewDict()
	for _, a := range values {
		for _, b := range values {
			checkCharKernels(t, k, dict, a, b)
		}
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		checkCharKernels(t, k, dict, randomTokenDoc(rng, 12), randomTokenDoc(rng, 12))
	}
	// Small alphabets at lengths straddling the 64-rune word boundaries
	// make long matching runs, transpositions and carries across words
	// common.
	for _, alphabet := range []string{"ab", "abc ", "aé世 "} {
		for i := 0; i < 300; i++ {
			checkCharKernels(t, k, dict,
				randomRunes(rng, alphabet, 1+rng.Intn(140)),
				randomRunes(rng, alphabet, 1+rng.Intn(140)))
		}
	}
}

func randomRunes(rng *rand.Rand, alphabet string, n int) string {
	rs := []rune(alphabet)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteRune(rs[rng.Intn(len(rs))])
	}
	return sb.String()
}

// TestJaroWinklerSymmetric pins the fact the fused Monge-Elkan relies
// on to score each token pair once: Jaro and Jaro-Winkler are symmetric
// bit for bit. It checks every pair of strings of up to six runes over a
// two-letter alphabet, where repeated runes make the greedy scan's
// choices matter most, plus random longer pairs.
func TestJaroWinklerSymmetric(t *testing.T) {
	var words []string
	for n := 0; n <= 6; n++ {
		for bitsOf := 0; bitsOf < 1<<n; bitsOf++ {
			w := make([]byte, n)
			for i := range w {
				w[i] = "ab"[bitsOf>>i&1]
			}
			words = append(words, string(w))
		}
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		words = append(words, randomRunes(rng, "abc", 1+rng.Intn(20)))
	}
	for _, a := range words {
		for _, b := range words {
			for _, m := range []Metric{Jaro{}, JaroWinkler{}} {
				if ab, ba := m.Compare(a, b), m.Compare(b, a); math.Float64bits(ab) != math.Float64bits(ba) {
					t.Fatalf("%s(%q, %q) = %v but %s(%q, %q) = %v", m.Name(), a, b, ab, m.Name(), b, a, ba)
				}
			}
		}
	}
}

func TestCharSlot(t *testing.T) {
	for i, m := range charFamily {
		if got := CharSlot(m); got != i {
			t.Errorf("CharSlot(%s) = %d, want %d", m.Name(), got, i)
		}
	}
	for _, m := range []Metric{Identity{}, MongeElkan{}, QGram{}, Soundex{}} {
		if got := CharSlot(m); got != -1 {
			t.Errorf("CharSlot(%s) = %d, want -1", m.Name(), got)
		}
	}
}

// FuzzCharKernels checks the kernel equivalence property on arbitrary
// byte strings, invalid UTF-8 included.
func FuzzCharKernels(f *testing.F) {
	f.Add("sonixx wireless speaker", "sonix wirelss speaker")
	f.Add("", "")
	f.Add("a", "")
	f.Add("ab", "ba")
	f.Add("ünïcødé tèxt", "UNICODE text")
	f.Add("a\xffb", "\xff")
	f.Add("the the the", "the")
	f.Add(runesOf("abcdefghij", 65), runesOf("abcdefghik", 129))
	k := GetCharKernel()
	dict := NewDict()
	f.Fuzz(func(t *testing.T, a, b string) {
		if len(a) > 256 || len(b) > 256 {
			t.Skip() // keep the quadratic metrics bounded
		}
		checkCharKernels(t, k, dict, a, b)
	})
}

// BenchmarkCharKernels times the fused kernels against running each
// fused metric's Compare on one pair of product titles, and the
// alignment pass's lane path (align/simd) against its row path
// (align/portable) on a year, a title and a description pair: laneMin
// comes from where the two cross.
func BenchmarkCharKernels(b *testing.B) {
	x := "Samsung Galaxy S21 Ultra 128GB Phantom Black smartphone unlocked"
	y := "Samsung Galaxy S21 Ultra 5G (128 GB) - Schwarz, entsperrt, Dual-SIM"
	ra, rb := []rune(x), []rune(y)
	b.Run("fused", func(b *testing.B) {
		k := GetCharKernel()
		defer k.Release()
		for i := 0; i < b.N; i++ {
			k.Score(ra, rb)
		}
	})
	b.Run("compare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, m := range charFamily {
				m.Compare(x, y)
			}
		}
	})
	for _, p := range [][2]string{
		{"2004", "2005"},
		{x, y},
		{"Portable Bluetooth speaker with 20 W stereo sound, 12-hour battery, IPX7 waterproofing and a built-in microphone",
			"Wireless waterproof speaker (IPX7): 20W stereo, up to 12 hours of playback, hands-free calls via built-in mic"},
	} {
		a, c := []rune(p[0]), []rune(p[1])
		shape := fmt.Sprintf("%dx%d", len(a), len(c))
		b.Run("align/simd/"+shape, func(b *testing.B) {
			if !alignKernel {
				b.Skip("no SIMD alignment kernel on this platform")
			}
			k := GetCharKernel()
			defer k.Release()
			k.bitPass(c, a)
			for i := 0; i < b.N; i++ {
				k.alignLanes(len(a), len(c))
			}
		})
		b.Run("align/portable/"+shape, func(b *testing.B) {
			k := GetCharKernel()
			defer k.Release()
			for i := 0; i < b.N; i++ {
				k.alignRows(a, c)
			}
		})
	}
}

// TestAlignKernelsAgree pins the alignment pass's lane path (alignLanes)
// to its row path (alignRows) on the (Needleman-Wunsch, Smith-Waterman,
// Smith-Waterman-Gotoh) triple: alphabets of 2, 5 and 27 runes and a
// non-ASCII mix, every length 1–300 against a random one, mutated
// copies (long local alignments), and the 1×300 and 300×1 extremes where
// most lanes are padding. Two pairs at the edge of onLanes' int16 guard,
// one just inside and one just outside, must also equal every metric's
// Compare; FuzzCharKernels' length cap keeps it far from that edge.
func TestAlignKernelsAgree(t *testing.T) {
	if !alignKernel {
		t.Skip("no SIMD alignment kernel on this platform")
	}
	k := GetCharKernel()
	defer k.Release()
	check := func(a, b []rune) {
		t.Helper()
		k.bitPass(b, a)
		nw, sw, swg := k.alignLanes(len(a), len(b))
		rnw, rsw, rswg := k.alignRows(a, b)
		if nw != rnw || sw != rsw || swg != rswg {
			t.Fatalf("%d×%d runes %q × %q: lanes (%d, %d, %d), rows (%d, %d, %d)",
				len(a), len(b), string(a), string(b), nw, sw, swg, rnw, rsw, rswg)
		}
	}
	rng := rand.New(rand.NewSource(32))
	for _, alphabet := range []string{"ab", "abcde", "abcdefghijklmnopqrstuvwxyz ", "aé世Ж€ 𝄞b"} {
		for n := 1; n <= 300; n++ {
			a := []rune(randomRunes(rng, alphabet, n))
			check(a, []rune(randomRunes(rng, alphabet, 1+rng.Intn(300))))
			check(a, mutateRunes(rng, a, alphabet))
		}
		check([]rune(randomRunes(rng, alphabet, 1)), []rune(randomRunes(rng, alphabet, 300)))
		check([]rune(randomRunes(rng, alphabet, 300)), []rune(randomRunes(rng, alphabet, 1)))
	}

	// The guard's edge: n+m = 32767 runs on lanes, 32768 does not. The
	// short side has laneMin runes, so the long side is as long as lanes
	// allow and its Needleman-Wunsch candidates reach -(32768-laneMin).
	dict := NewDict()
	short := runesOf("abcdefghij", laneMin)
	for _, total := range []int{math.MaxInt16, math.MaxInt16 + 1} {
		long := strings.Repeat("z", total-2*laneMin) + short
		inside := total <= math.MaxInt16
		if got := onLanes(laneMin, total-laneMin); got != inside {
			t.Fatalf("onLanes(%d, %d) = %v, want %v", laneMin, total-laneMin, got, inside)
		}
		if inside {
			check([]rune(short), []rune(long))
			check([]rune(long), []rune(short))
		}
		checkCharKernels(t, k, dict, short, long)
		checkCharKernels(t, k, dict, long, short)
	}
}

// mutateRunes returns a copy of a with about one rune in eight replaced,
// deleted or followed by an inserted rune from alphabet.
func mutateRunes(rng *rand.Rand, a []rune, alphabet string) []rune {
	rs := []rune(alphabet)
	var out []rune
	for _, r := range a {
		switch rng.Intn(24) {
		case 0:
			out = append(out, rs[rng.Intn(len(rs))])
		case 1:
		case 2:
			out = append(out, r, rs[rng.Intn(len(rs))])
		default:
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		out = append(out, rs[0])
	}
	return out
}
