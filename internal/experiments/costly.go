package experiments

// Costly-oracle extension drivers: what happens to the §6 protocol when
// every label costs real money, the labeler can abstain, and the budget
// is denominated in dollars instead of labels — plus the transfer
// warm-start sweep, where a model trained on one dataset seeds a session
// on another and the saved labels are the deliverable.

import (
	"fmt"
	"math"

	"github.com/alem/alem/internal/core"
	"github.com/alem/alem/internal/linear"
	"github.com/alem/alem/internal/oracle"
)

// costlyPrice is the simulated labeler's price list for both drivers:
// a delivered verdict costs a fifth of a cent, an abstention a quarter
// of that — roughly the ratio of a full LLM completion to a refusal.
var costlyPrice = oracle.PriceTable{PerLabel: 0.002, PerAbstain: 0.0005}

// runBatchApproach is runApproach for priced batch oracles; it returns
// the session alongside the result so drivers can read the stop reason
// and the cost ledger.
func runBatchApproach(opts Options, pool *core.Pool, learner core.Learner, sel core.Selector,
	bo oracle.BatchOracle, cfg core.Config) (*core.Result, *core.Session) {
	s, err := core.NewBatchSession(pool, learner, sel, bo, cfg)
	if err != nil {
		panic(err)
	}
	if opts.Observer != nil {
		s.AddObserver(opts.Observer)
	}
	res, _ := s.Run(opts.ctx())
	return res, s
}

// AblationCostly reproduces the label-budget protocol under a priced,
// abstaining simulated LLM labeler and contrasts three regimes on the
// same pool and seeds: the paper's free perfect oracle, the priced
// labeler with only the label budget, and the priced labeler under a
// dollar cap tight enough that money — not labels — ends the run.
func AblationCostly(opts Options) (*Report, error) {
	pool, d, err := loadPool("dblp-acm", floatPool, opts)
	if err != nil {
		return nil, err
	}
	simCfg := oracle.LLMSimConfig{
		AbstainRate: 0.1,
		NoiseRate:   0.05,
		Price:       costlyPrice,
	}
	// The cap affords ~60% of the label budget, so the dollar budget is
	// the binding constraint and the run must end StopBudgetExhausted.
	capped := 0.6 * float64(opts.MaxLabels) * costlyPrice.PerLabel

	r := &Report{
		ID:      "ablation-costly",
		Title:   "Extension: priced abstaining labeler vs free oracle (SVM-margin, DBLP-ACM)",
		Headers: []string{"oracle", "stop reason", "labels", "abstains", "spent ($)", "best F1", "F1/$"},
	}
	addRow := func(name string, res *core.Result, s *core.Session) {
		led := s.Ledger()
		f1PerDollar := "-"
		if led.Spent > 0 {
			f1PerDollar = fmt.Sprintf("%.1f", res.Curve.BestF1()/led.Spent)
		}
		r.Rows = append(r.Rows, []string{
			name, s.Reason().String(),
			fmt.Sprintf("%d", res.LabelsUsed),
			fmt.Sprintf("%d", led.Abstains),
			fmt.Sprintf("%.4f", led.Spent),
			fmt.Sprintf("%.3f", res.Curve.BestF1()),
			f1PerDollar,
		})
	}

	// The paper's regime: free, perfect, per-pair, asked one pair per
	// LabelBatch call.
	freeRes, freeSes := runBatchApproach(opts, pool, svmFactory(opts.Seed), core.Margin{},
		oracle.PerPair(perfectOracle(d)), mkCfg(opts))
	addRow("perfect (free)", freeRes, freeSes)

	uncappedCfg := mkCfg(opts)
	uncRes, uncSes := runBatchApproach(opts, pool, svmFactory(opts.Seed), core.Margin{},
		oracle.NewSimulatedLLM(d, simCfg, opts.Seed), uncappedCfg)
	addRow("llm-sim (label budget)", uncRes, uncSes)

	cappedCfg := mkCfg(opts)
	cappedCfg.MaxDollars = capped
	capRes, capSes := runBatchApproach(opts, pool, svmFactory(opts.Seed), core.Margin{},
		oracle.NewSimulatedLLM(d, simCfg, opts.Seed), cappedCfg)
	addRow(fmt.Sprintf("llm-sim (cap $%.2f)", capped), capRes, capSes)

	r.Series = append(r.Series,
		Series{Name: "llm-sim capped", Metric: MetricF1PerDollar, Curve: capRes.Curve},
		Series{Name: "llm-sim capped", Metric: MetricSpent, Curve: capRes.Curve},
	)
	r.Notes = append(r.Notes,
		"abstentions are billed at a quarter of a verdict and requeued until the cutoff,",
		"so the capped run buys fewer verdicts than spent/per-label alone would suggest;",
		"the F1-per-dollar series is the curve a labeling-budget owner actually optimizes")
	return r, nil
}

// AblationWarmStart measures transfer warm-start: an SVM trained on all
// of DBLP-ACM's truth seeds a session on DBLP-Scholar (identical
// four-attribute schema, so feature dimensions line up), skipping the
// random seed bootstrap; the deliverable is labels saved to reach the
// cold run's quality.
func AblationWarmStart(opts Options) (*Report, error) {
	srcPool, _, err := loadPool("dblp-acm", floatPool, opts)
	if err != nil {
		return nil, err
	}
	pool, d, err := loadPool("dblp-scholar", floatPool, opts)
	if err != nil {
		return nil, err
	}
	warm := linear.NewSVM(opts.Seed)
	warm.Train(srcPool.X, srcPool.Truth)

	cold := runApproach(opts, pool, svmFactory(opts.Seed), core.Margin{}, perfectOracle(d), mkCfg(opts))

	ws, err := core.NewSession(pool, svmFactory(opts.Seed), core.Margin{}, perfectOracle(d), mkCfg(opts))
	if err != nil {
		return nil, err
	}
	if err := ws.SetWarmStart(warm); err != nil {
		return nil, err
	}
	if opts.Observer != nil {
		ws.AddObserver(opts.Observer)
	}
	warmRes, _ := ws.Run(opts.ctx())

	// Labels to reach 95% of the weaker run's best F1 — a bar both curves
	// cross, so the transfer win is how much earlier the warm one does.
	target := 0.95 * math.Min(cold.Curve.BestF1(), warmRes.Curve.BestF1())
	labelsTo := func(res *core.Result) int {
		for _, p := range res.Curve {
			if p.F1 >= target {
				return p.Labels
			}
		}
		return -1
	}
	coldAt, warmAt := labelsTo(cold), labelsTo(warmRes)

	r := &Report{
		ID:      "ablation-warmstart",
		Title:   "Extension: transfer warm-start DBLP-ACM -> DBLP-Scholar (SVM-margin)",
		Headers: []string{"start", "best F1", "initial F1", fmt.Sprintf("#labels to F1>=%.3f", target)},
	}
	fmtAt := func(n int) string {
		if n < 0 {
			return "never"
		}
		return fmt.Sprintf("%d", n)
	}
	initialF1 := func(res *core.Result) string {
		if len(res.Curve) == 0 {
			return "-"
		}
		return fmt.Sprintf("%.3f", res.Curve[0].F1)
	}
	r.Rows = append(r.Rows,
		[]string{"cold", fmt.Sprintf("%.3f", cold.Curve.BestF1()), initialF1(cold), fmtAt(coldAt)},
		[]string{"warm (dblp-acm)", fmt.Sprintf("%.3f", warmRes.Curve.BestF1()), initialF1(warmRes), fmtAt(warmAt)},
	)
	if coldAt >= 0 && warmAt >= 0 {
		r.Rows = append(r.Rows, []string{"labels saved", "", "", fmt.Sprintf("%d", coldAt-warmAt)})
	}
	r.Series = append(r.Series,
		Series{Name: "cold", Metric: MetricF1, Curve: cold.Curve},
		Series{Name: "warm", Metric: MetricF1, Curve: warmRes.Curve},
	)
	r.Notes = append(r.Notes,
		"the warm learner drives selection until the labeled set contains both classes,",
		"then the session's own learner takes over — no seed bootstrap labels are bought")
	return r, nil
}
