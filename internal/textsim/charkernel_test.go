package textsim

import (
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
// fused metric's Compare on one pair of product titles.
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
}
