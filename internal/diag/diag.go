// Package diag inspects an EM dataset's difficulty: how separable are
// matches from non-matches in the feature space the learners see? It
// summarizes per-attribute mean similarities by class and renders an
// ASCII histogram of mean-similarity distributions — the diagnostic view
// used to calibrate the synthetic dataset profiles against Table 1.
package diag

import (
	"context"
	"fmt"
	"io"
	"strings"

	"github.com/alem/alem/internal/blocking"
	"github.com/alem/alem/internal/dataset"
	"github.com/alem/alem/internal/feature"
)

// Report summarizes a dataset's post-blocking feature geometry.
type Report struct {
	Dataset           string
	PostBlockingPairs int
	Skew              float64
	MatchesKept       int
	MatchesTotal      int
	// AttrSeparation holds, per attribute, the mean of the 21 similarity
	// features for matches and non-matches.
	AttrSeparation []AttrStats
	// MatchHist / NonMatchHist bucket the per-pair mean similarity into
	// ten [0,1] bins.
	MatchHist    [10]int
	NonMatchHist [10]int
	// Index is the candidate-index shape and filter funnel of the
	// blocking pass that produced the pairs above.
	Index blocking.IndexStats
}

// AttrStats is one attribute's class-conditional mean similarity.
type AttrStats struct {
	Attr          string
	MatchMean     float64
	NonMatchMean  float64
	NullRateLeft  float64
	NullRateRight float64
}

// Analyze blocks and featurizes the dataset, then computes the report.
func Analyze(d *dataset.Dataset) *Report {
	idx := blocking.NewCandidateIndex(d, blocking.IndexOptions{})
	res, err := blocking.Generate(context.Background(), idx)
	if err != nil {
		// Unreachable: generation fails only by cancellation and the
		// background context never cancels.
		panic(fmt.Sprintf("diag: uncancellable blocking failed: %v", err))
	}
	ext := feature.NewExtractor(d.Left.Schema)
	X := ext.ExtractPairs(d, res.Pairs)

	r := &Report{
		Dataset:           d.Name,
		PostBlockingPairs: len(res.Pairs),
		Skew:              res.Skew(d),
		MatchesKept:       res.MatchesKept,
		MatchesTotal:      res.MatchesTotal,
		Index:             idx.Stats(),
	}
	nAttrs := len(d.Left.Schema)
	perAttr := 0
	if nAttrs > 0 && len(X) > 0 {
		perAttr = len(X[0]) / nAttrs
	}
	sums := make([][2]float64, nAttrs) // [attr][class]
	counts := [2]int{}
	for i, v := range X {
		cls := 0
		if d.IsMatch(res.Pairs[i]) {
			cls = 1
		}
		counts[cls]++
		var total float64
		for a := 0; a < nAttrs; a++ {
			var s float64
			for k := 0; k < perAttr; k++ {
				s += v[a*perAttr+k]
			}
			s /= float64(perAttr)
			sums[a][cls] += s
			total += s
		}
		total /= float64(nAttrs)
		bin := int(total * 10)
		if bin > 9 {
			bin = 9
		}
		if cls == 1 {
			r.MatchHist[bin]++
		} else {
			r.NonMatchHist[bin]++
		}
	}
	for a := 0; a < nAttrs; a++ {
		st := AttrStats{Attr: d.Left.Schema[a]}
		if counts[1] > 0 {
			st.MatchMean = sums[a][1] / float64(counts[1])
		}
		if counts[0] > 0 {
			st.NonMatchMean = sums[a][0] / float64(counts[0])
		}
		st.NullRateLeft = nullRate(d.Left, a)
		st.NullRateRight = nullRate(d.Right, a)
		r.AttrSeparation = append(r.AttrSeparation, st)
	}
	return r
}

func nullRate(t *dataset.Table, attr int) float64 {
	if len(t.Rows) == 0 {
		return 0
	}
	n := 0
	for _, row := range t.Rows {
		if row.Values[attr] == "" {
			n++
		}
	}
	return float64(n) / float64(len(t.Rows))
}

// Separation is the headline difficulty number: the gap between the
// match and non-match mean similarities averaged over attributes. Values
// near 0 mean the classes overlap (hard); values near 1 mean trivially
// separable.
func (r *Report) Separation() float64 {
	if len(r.AttrSeparation) == 0 {
		return 0
	}
	var s float64
	for _, a := range r.AttrSeparation {
		s += a.MatchMean - a.NonMatchMean
	}
	return s / float64(len(r.AttrSeparation))
}

// Print renders the report, including ASCII histograms.
func (r *Report) Print(w io.Writer) {
	fmt.Fprintf(w, "dataset %s: %d post-blocking pairs, skew %.3f, matches kept %d/%d\n",
		r.Dataset, r.PostBlockingPairs, r.Skew, r.MatchesKept, r.MatchesTotal)
	fmt.Fprintf(w, "candidate index: %d tokens, %d postings; probed %d, size-filtered %d, count-filtered %d, verified %d, kept %d\n",
		r.Index.Tokens, r.Index.Postings,
		r.Index.Probed, r.Index.SizeSkipped, r.Index.CountSkipped, r.Index.Verified, r.Index.Kept)
	fmt.Fprintf(w, "class separation %.3f (match-mean minus non-match-mean similarity)\n\n", r.Separation())
	fmt.Fprintf(w, "%-20s %11s %14s %11s %11s\n", "attribute", "match mean", "non-match mean", "null left", "null right")
	for _, a := range r.AttrSeparation {
		fmt.Fprintf(w, "%-20s %11.3f %14.3f %10.0f%% %10.0f%%\n",
			a.Attr, a.MatchMean, a.NonMatchMean, a.NullRateLeft*100, a.NullRateRight*100)
	}
	fmt.Fprintf(w, "\nmean-similarity distribution (rows are [0.0-0.1) ... [0.9-1.0]):\n")
	fmt.Fprintf(w, "%-10s %-32s %s\n", "bin", "matches", "non-matches")
	maxM, maxN := 1, 1
	for i := 0; i < 10; i++ {
		if r.MatchHist[i] > maxM {
			maxM = r.MatchHist[i]
		}
		if r.NonMatchHist[i] > maxN {
			maxN = r.NonMatchHist[i]
		}
	}
	for i := 0; i < 10; i++ {
		fmt.Fprintf(w, "[%.1f-%.1f)  %-32s %s\n", float64(i)/10, float64(i+1)/10,
			bar(r.MatchHist[i], maxM, 30), bar(r.NonMatchHist[i], maxN, 30))
	}
}

// bar renders n scaled against max into a width-character bar.
func bar(n, max, width int) string {
	if n == 0 {
		return ""
	}
	w := n * width / max
	if w == 0 {
		w = 1
	}
	return strings.Repeat("#", w) + fmt.Sprintf(" %d", n)
}
