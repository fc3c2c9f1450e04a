package textsim

import "math"

// Token-based (set and multiset) similarity metrics. All use the
// Whitespace tokenizer unless stated otherwise.

// Jaccard is |A∩B| / |A∪B| over word token sets. It is one of the three
// metrics supported by the rule-based learner (§3) and the metric used by
// the offline blocking step (§6).
type Jaccard struct{}

// Name implements Metric.
func (Jaccard) Name() string { return "jaccard" }

// Compare implements Metric.
func (Jaccard) Compare(a, b string) float64 {
	return JaccardTokens(Whitespace{}.Tokens(a), Whitespace{}.Tokens(b))
}

// JaccardTokens computes Jaccard similarity over pre-tokenized inputs. The
// blocking package uses it directly to avoid re-tokenizing records.
func JaccardTokens(ta, tb []string) float64 {
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	sa, sb := set(ta), set(tb)
	inter := 0
	for t := range sa {
		if _, ok := sb[t]; ok {
			inter++
		}
	}
	union := len(sa) + len(sb) - inter
	return float64(inter) / float64(union)
}

// Dice is the Sørensen-Dice coefficient 2|A∩B| / (|A|+|B|) over token sets.
type Dice struct{}

// Name implements Metric.
func (Dice) Name() string { return "dice" }

// Compare implements Metric.
func (Dice) Compare(a, b string) float64 {
	ta, tb := Whitespace{}.Tokens(a), Whitespace{}.Tokens(b)
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	sa, sb := set(ta), set(tb)
	inter := 0
	for t := range sa {
		if _, ok := sb[t]; ok {
			inter++
		}
	}
	return 2 * float64(inter) / float64(len(sa)+len(sb))
}

// SimonWhite is the quantitative Dice coefficient over padded character
// bigram multisets — robust to token-order changes and minor typos at once.
type SimonWhite struct{}

// Name implements Metric.
func (SimonWhite) Name() string { return "simon_white" }

// Compare implements Metric.
func (SimonWhite) Compare(a, b string) float64 {
	tok := QGramTokenizer{Q: 2, Pad: false}
	ca := counts(tok.Tokens(a))
	cb := counts(tok.Tokens(b))
	if len(ca) == 0 && len(cb) == 0 {
		return 1
	}
	if len(ca) == 0 || len(cb) == 0 {
		return 0
	}
	inter, total := 0, 0
	for g, na := range ca {
		inter += min(na, cb[g])
		total += na
	}
	for _, nb := range cb {
		total += nb
	}
	return 2 * float64(inter) / float64(total)
}

// Cosine is cosine similarity between token-count vectors.
type Cosine struct{}

// Name implements Metric.
func (Cosine) Name() string { return "cosine" }

// Compare implements Metric.
func (Cosine) Compare(a, b string) float64 {
	ca := counts(Whitespace{}.Tokens(a))
	cb := counts(Whitespace{}.Tokens(b))
	if len(ca) == 0 && len(cb) == 0 {
		return 1
	}
	if len(ca) == 0 || len(cb) == 0 {
		return 0
	}
	var dot, na, nb float64
	for t, x := range ca {
		dot += float64(x * cb[t])
		na += float64(x * x)
	}
	for _, y := range cb {
		nb += float64(y * y)
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// Overlap is the overlap coefficient |A∩B| / min(|A|, |B|) over token sets;
// it scores 1 whenever one token set contains the other (e.g. a short title
// embedded in a long one).
type Overlap struct{}

// Name implements Metric.
func (Overlap) Name() string { return "overlap" }

// Compare implements Metric.
func (Overlap) Compare(a, b string) float64 {
	ta, tb := Whitespace{}.Tokens(a), Whitespace{}.Tokens(b)
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	sa, sb := set(ta), set(tb)
	inter := 0
	for t := range sa {
		if _, ok := sb[t]; ok {
			inter++
		}
	}
	return float64(inter) / float64(min(len(sa), len(sb)))
}

// MatchingCoefficient is |A∩B| / max(|A|, |B|) over token sets.
type MatchingCoefficient struct{}

// Name implements Metric.
func (MatchingCoefficient) Name() string { return "matching_coefficient" }

// Compare implements Metric.
func (MatchingCoefficient) Compare(a, b string) float64 {
	ta, tb := Whitespace{}.Tokens(a), Whitespace{}.Tokens(b)
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	sa, sb := set(ta), set(tb)
	inter := 0
	for t := range sa {
		if _, ok := sb[t]; ok {
			inter++
		}
	}
	return float64(inter) / float64(max(len(sa), len(sb)))
}

// BlockDistance is L1 (city-block) similarity between token-count vectors:
// 1 - L1(a,b) / (|a| + |b|).
type BlockDistance struct{}

// Name implements Metric.
func (BlockDistance) Name() string { return "block_distance" }

// Compare implements Metric.
func (BlockDistance) Compare(a, b string) float64 {
	ta, tb := Whitespace{}.Tokens(a), Whitespace{}.Tokens(b)
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	ca, cb := counts(ta), counts(tb)
	diff := 0
	for t, x := range ca {
		diff += abs(x - cb[t])
	}
	for t, y := range cb {
		if _, ok := ca[t]; !ok {
			diff += y
		}
	}
	return 1 - float64(diff)/float64(len(ta)+len(tb))
}

// Euclidean is L2 similarity between token-count vectors:
// 1 - ||a-b|| / (||a|| + ||b||), which lies in [0,1] by the triangle
// inequality.
type Euclidean struct{}

// Name implements Metric.
func (Euclidean) Name() string { return "euclidean" }

// Compare implements Metric.
func (Euclidean) Compare(a, b string) float64 {
	ta, tb := Whitespace{}.Tokens(a), Whitespace{}.Tokens(b)
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	ca, cb := counts(ta), counts(tb)
	var dd, na, nb float64
	for t, x := range ca {
		d := float64(x - cb[t])
		dd += d * d
		na += float64(x * x)
	}
	for t, y := range cb {
		if _, ok := ca[t]; !ok {
			dd += float64(y * y)
		}
		nb += float64(y * y)
	}
	denom := math.Sqrt(na) + math.Sqrt(nb)
	if denom == 0 {
		return 1
	}
	return 1 - math.Sqrt(dd)/denom
}

// GeneralizedJaccard is soft Jaccard: tokens from A and B are greedily
// matched when their Jaro-Winkler similarity is at least 0.8, and the
// matched mass replaces the exact intersection in the Jaccard formula. It
// tolerates token-level typos that break exact Jaccard.
type GeneralizedJaccard struct{}

// Name implements Metric.
func (GeneralizedJaccard) Name() string { return "generalized_jaccard" }

// Compare implements Metric. Greedy soft matching depends on the
// direction it walks, so the score is symmetrized over both directions.
func (g GeneralizedJaccard) Compare(a, b string) float64 {
	ta, tb := Whitespace{}.Tokens(a), Whitespace{}.Tokens(b)
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	sa := setSlice(ta)
	sb := setSlice(tb)
	return (softJaccardDirected(sa, sb) + softJaccardDirected(sb, sa)) / 2
}

func softJaccardDirected(sa, sb []string) float64 {
	jw := JaroWinkler{}
	sc := getScratch()
	defer putScratch(sc)
	sc.ba = grow(sc.ba, len(sb))
	used := sc.ba
	clear(used)
	var matched float64
	for _, x := range sa {
		bestJ, bestSim := -1, 0.0
		for j, y := range sb {
			if used[j] {
				continue
			}
			if s := jw.Compare(x, y); s > bestSim {
				bestSim, bestJ = s, j
			}
		}
		if bestJ >= 0 && bestSim >= 0.8 {
			used[bestJ] = true
			matched += bestSim
		}
	}
	union := float64(len(sa)+len(sb)) - matched
	if union <= 0 {
		return 1
	}
	return matched / union
}

// MongeElkan is the symmetrized Monge-Elkan measure with Jaro-Winkler as
// the inner metric: for each token of one string take the best inner
// similarity against the other string's tokens, average, and symmetrize.
type MongeElkan struct{}

// Name implements Metric.
func (MongeElkan) Name() string { return "monge_elkan" }

// Compare implements Metric.
func (MongeElkan) Compare(a, b string) float64 {
	ta, tb := Whitespace{}.Tokens(a), Whitespace{}.Tokens(b)
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	return (mongeElkanDirected(ta, tb) + mongeElkanDirected(tb, ta)) / 2
}

func mongeElkanDirected(ta, tb []string) float64 {
	jw := JaroWinkler{}
	var sum float64
	for _, x := range ta {
		best := 0.0
		for _, y := range tb {
			if s := jw.Compare(x, y); s > best {
				best = s
			}
		}
		sum += best
	}
	return sum / float64(len(ta))
}

// setSlice deduplicates tokens preserving first-seen order.
func setSlice(tokens []string) []string {
	seen := make(map[string]struct{}, len(tokens))
	out := tokens[:0:0]
	for _, t := range tokens {
		if _, ok := seen[t]; !ok {
			seen[t] = struct{}{}
			out = append(out, t)
		}
	}
	return out
}
