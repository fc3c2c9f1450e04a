package experiments

import (
	"fmt"

	"github.com/alem/alem/internal/core"
	"github.com/alem/alem/internal/eval"
	"github.com/alem/alem/internal/interp"
	"github.com/alem/alem/internal/oracle"
	"github.com/alem/alem/internal/tree"
)

// Figure18 reproduces Fig. 18: interpretability of trees vs rules on
// Abt-Buy — (a) #DNF atoms vs #labels for Trees(2/10/20) and
// Rules(LFP/LFN), (b) maximum tree-ensemble depth vs #labels — plus the
// final learned rule DNF, which the paper prints for Abt-Buy.
func Figure18(opts Options) (*Report, error) {
	pool, d, err := loadPool("abt-buy", floatPool, opts)
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "fig18", Title: "Interpretability Experiments (Abt-Buy)"}

	for _, nt := range []int{2, 10, 20} {
		f := tree.NewForest(nt, opts.Seed)
		curve := measuredCurve(opts, pool, f, core.ForestQBC{}, perfectOracle(d), func(pt *eval.Point) {
			pt.DNFAtoms = interp.ForestAtoms(f)
			pt.Depth = f.Depth()
		})
		r.Series = append(r.Series,
			Series{Name: fmt.Sprintf("Trees(%d) atoms", nt), Metric: MetricAtoms, Curve: curve},
			Series{Name: fmt.Sprintf("Trees(%d) depth", nt), Metric: MetricDepth, Curve: curve})
	}

	// Rules on the Boolean pool, with the final DNF printed.
	bpool, _ := mustPool("abt-buy", boolPool, opts)
	model := rulesLearner(d)
	curve := measuredCurve(opts, bpool, model, core.LFPLFN{}, perfectOracle(d), func(pt *eval.Point) {
		pt.DNFAtoms = model.NumAtoms()
	})
	r.Series = append(r.Series, Series{Name: "Rules(LFP/LFN) atoms", Metric: MetricAtoms, Curve: curve})

	r.Notes = append(r.Notes,
		fmt.Sprintf("final rule ensemble (#DNF atoms = %d):", model.NumAtoms()),
		model.String(),
		"expected shape: tree atoms and depths grow with labels and committee size;",
		"rules stay 2-3 orders of magnitude smaller (Fig. 18a, log scale).")
	return r, nil
}

// measuredCurve runs one session and returns its curve with each point
// passed through measure at the point's select phase, while the learner
// still holds the model that point evaluated. The event stream reaches
// opts.Observer unchanged.
func measuredCurve(opts Options, pool *core.Pool, l core.Learner, sel core.Selector,
	o oracle.Oracle, measure func(*eval.Point)) eval.Curve {
	var curve eval.Curve
	next := opts.Observer
	opts.Observer = core.ObserverFunc(func(e core.Event) {
		if pd, ok := e.(core.PhaseDone); ok && pd.Phase == "select" {
			measure(&pd.Point)
			curve = append(curve, pd.Point)
		}
		if next != nil {
			next.Observe(e)
		}
	})
	runApproach(opts, pool, l, sel, o, core.Config{Seed: opts.Seed, MaxLabels: opts.MaxLabels})
	return curve
}
