package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"github.com/alem/alem/internal/blocking"
	"github.com/alem/alem/internal/core"
	"github.com/alem/alem/internal/dataset"
	"github.com/alem/alem/internal/feature"
	"github.com/alem/alem/internal/linear"
	"github.com/alem/alem/internal/neural"
	"github.com/alem/alem/internal/oracle"
	"github.com/alem/alem/internal/rules"
	"github.com/alem/alem/internal/tree"
)

// sessionSpec is one learner × selector pairing. family names the
// learner's layer (its package), which owns the session's train phase.
type sessionSpec struct {
	name     string
	family   string
	selector string
	boolPool bool
	learner  func(d *dataset.Dataset, seed int64) core.Learner
}

var (
	forestQBC = sessionSpec{"forest(20)+forest-qbc", "tree", "forest-qbc", false,
		func(_ *dataset.Dataset, seed int64) core.Learner { return tree.NewForest(20, seed) }}
	svmQBC = sessionSpec{"svm+qbc", "linear", "qbc", false,
		func(_ *dataset.Dataset, seed int64) core.Learner { return linear.NewSVM(seed) }}
	svmMargin = sessionSpec{"svm+margin", "linear", "margin", false,
		func(_ *dataset.Dataset, seed int64) core.Learner { return linear.NewSVM(seed) }}
	nnMargin = sessionSpec{"nn(16)+margin", "neural", "margin", false,
		func(_ *dataset.Dataset, seed int64) core.Learner { return neural.NewNet(16, seed) }}
	rulesLFP = sessionSpec{"rules+lfp-lfn", "rules", "lfp-lfn", true,
		func(d *dataset.Dataset, _ int64) core.Learner {
			return rules.NewModel(feature.NewBoolExtractor(d.Left.Schema))
		}}
)

// alSpec is an active-learning workload: every session spec runs on
// every dataset's pool, one after another, to its stop.
type alSpec struct {
	datasets  []string
	scale     float64
	sessions  []sessionSpec
	maxLabels int
	// priced sessions label through the simulated LLM oracle under
	// dollarCap; the others use the free perfect oracle.
	priced bool
	// round is the nominal wall time of one round (every session once) on
	// the host README.md names. An untraced run makes --seconds/round
	// rounds, at least minRounds: a count fixed before the run, so a slow
	// host does not also get fewer repeats to take each step's fastest of.
	round time.Duration
}

var (
	alLarge = alSpec{
		datasets: []string{"dblp-scholar"}, scale: 1,
		sessions: []sessionSpec{forestQBC, svmQBC, svmMargin}, maxLabels: 500,
		round: 5 * time.Second,
	}
	alSmallPriced = alSpec{
		datasets: []string{"beer", "baby-products", "amazon-bestbuy"}, scale: 1,
		sessions: []sessionSpec{forestQBC, svmMargin, nnMargin, rulesLFP}, maxLabels: 200,
		priced: true, round: 3 * time.Second,
	}
)

// The priced labeler: the costly-oracle ablation's price list, 10%
// abstentions, 2% noise, no simulated latency. At ≈$0.00185 per answer
// the cap buys ≈160 answers, so it binds before the 200-label budget.
var llmConfig = oracle.LLMSimConfig{
	AbstainRate: 0.1,
	NoiseRate:   0.02,
	Price:       oracle.PriceTable{PerLabel: 0.002, PerAbstain: 0.0005},
}

const dollarCap = 0.30

// setupRepeats is how many times an untraced run builds its inputs;
// setup_s is the median. minRounds is the fewest rounds an untraced AL
// run makes, so every step's wait is the fastest of at least three
// repeats.
const (
	setupRepeats = 3
	minRounds    = 3
)

func runALLarge(ctx context.Context, opt options) (*outcome, error) {
	return runAL(ctx, opt, alLarge)
}

func runALSmallPriced(ctx context.Context, opt options) (*outcome, error) {
	return runAL(ctx, opt, alSmallPriced)
}

// derive mixes the workload seed with a label into an independent seed,
// so every input of a run follows from --seed alone.
func derive(seed int64, label string, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, label, i)
	return int64(h.Sum64() >> 1)
}

// dsPools is one dataset with the pools its sessions need.
type dsPools struct {
	d           *dataset.Dataset
	float, bits *core.Pool
}

func (s alSpec) needs() (float, bits bool) {
	for _, ss := range s.sessions {
		if ss.boolPool {
			bits = true
		} else {
			float = true
		}
	}
	return float, bits
}

// setup builds the workload's pools with the program's own constructors.
func (s alSpec) setup(seed int64) ([]dsPools, error) {
	wantFloat, wantBits := s.needs()
	out := make([]dsPools, len(s.datasets))
	for i, name := range s.datasets {
		d, err := dataset.Load(name, s.scale, derive(seed, "dataset", i))
		if err != nil {
			return nil, err
		}
		out[i].d = d
		if wantFloat {
			out[i].float = core.NewPool(d)
		}
		if wantBits {
			out[i].bits = core.NewBoolPool(d)
		}
	}
	return out, nil
}

// pipelineCounts accumulates the blocking funnel and featurization
// counts of traced candidate generation.
type pipelineCounts struct {
	pairs, featurized         int
	verified, kept            int64
	matchesKept, matchesTotal int
}

// tracedCandidates builds d's candidate index and enumerates its pairs,
// each call inside its own span, and adds the funnel to c.
func tracedCandidates(ctx context.Context, tr *tracer, parent int, run string, d *dataset.Dataset, c *pipelineCounts) (*blocking.Result, error) {
	x := blocking.NewCandidateIndex(d, blocking.IndexOptions{})
	var err error
	tr.timed("blocking.build", parent, run, func() { err = x.Build(ctx) })
	if err != nil {
		return nil, err
	}
	var res *blocking.Result
	tr.timed("blocking.candidates", parent, run, func() { res, err = x.Candidates(ctx) })
	if err != nil {
		return nil, err
	}
	is := x.Stats()
	c.pairs += len(res.Pairs)
	c.verified += is.Verified
	c.kept += is.Kept
	c.matchesKept += res.MatchesKept
	c.matchesTotal += res.MatchesTotal
	return res, nil
}

// metrics sets the blocking and feature layers' metrics from the counts
// and the trace.
func (c pipelineCounts) metrics(m metricSet, p profile) {
	m.layer("blocking.build_s", p.sec("blocking.build"))
	m.layer("blocking.candidates_s", p.sec("blocking.candidates"))
	m.layer("blocking.pairs", float64(c.pairs))
	m.layer("blocking.keep_frac", ratio(float64(c.kept), float64(c.verified)))
	m.layer("blocking.recall", ratio(float64(c.matchesKept), float64(c.matchesTotal)))
	m.layer("feature.extract_s", p.sec("feature.extract"))
	m.layer("feature.bool_extract_s", p.sec("feature.bool_extract"))
	m.layer("feature.pairs", float64(c.featurized))
	extract := p.sec("feature.extract") + p.sec("feature.bool_extract")
	m.layer("feature.us_per_pair", 1e6*ratio(extract, float64(c.featurized)))
}

// tracedSetup builds the same pools as setup from the layer calls the
// pool constructors make, each inside its own span, and assembles them
// into core.Pools through the exported fields.
func (s alSpec) tracedSetup(ctx context.Context, tr *tracer, seed int64, st *pipelineCounts) ([]dsPools, error) {
	root := tr.open("setup", 0, "setup")
	defer tr.close(root)
	wantFloat, wantBits := s.needs()
	out := make([]dsPools, len(s.datasets))
	for i, name := range s.datasets {
		var d *dataset.Dataset
		var err error
		tr.timed("dataset.load", root, name, func() { d, err = dataset.Load(name, s.scale, derive(seed, "dataset", i)) })
		if err != nil {
			return nil, err
		}
		out[i].d = d
		if wantFloat {
			if out[i].float, err = tracedPool(ctx, tr, root, d, false, st); err != nil {
				return nil, err
			}
		}
		if wantBits {
			if out[i].bits, err = tracedPool(ctx, tr, root, d, true, st); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

func tracedPool(ctx context.Context, tr *tracer, parent int, d *dataset.Dataset, bits bool, st *pipelineCounts) (*core.Pool, error) {
	res, err := tracedCandidates(ctx, tr, parent, d.Name, d, st)
	if err != nil {
		return nil, err
	}

	var X []feature.Vector
	if bits {
		tr.timed("feature.bool_extract", parent, d.Name, func() {
			rows := feature.NewBoolExtractor(d.Left.Schema).ExtractPairs(d, res.Pairs)
			X = make([]feature.Vector, len(rows))
			for i, row := range rows {
				v := make(feature.Vector, len(row))
				for j, b := range row {
					if b {
						v[j] = 1
					}
				}
				X[i] = v
			}
		})
	} else {
		tr.timed("feature.extract", parent, d.Name, func() {
			X = feature.NewExtractor(d.Left.Schema).ExtractPairs(d, res.Pairs)
		})
	}
	st.featurized += len(res.Pairs)
	truth := make([]bool, len(res.Pairs))
	for i, p := range res.Pairs {
		truth[i] = d.IsMatch(p)
	}
	return &core.Pool{Pairs: res.Pairs, X: X, Truth: truth}, nil
}

// samePools reports the first difference between two pool sets.
func samePools(a, b []dsPools) error {
	for i := range a {
		for _, pp := range [][2]*core.Pool{{a[i].float, b[i].float}, {a[i].bits, b[i].bits}} {
			if err := samePool(pp[0], pp[1]); err != nil {
				return fmt.Errorf("%s: %w", a[i].d.Name, err)
			}
		}
	}
	return nil
}

func samePool(a, b *core.Pool) error {
	if (a == nil) != (b == nil) {
		return fmt.Errorf("one pool missing")
	}
	if a == nil {
		return nil
	}
	if a.Len() != b.Len() || len(a.Pairs) != len(b.Pairs) || len(a.Truth) != len(b.Truth) {
		return fmt.Errorf("pool sizes differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Pairs {
		if a.Pairs[i] != b.Pairs[i] || a.Truth[i] != b.Truth[i] || len(a.X[i]) != len(b.X[i]) {
			return fmt.Errorf("pair %d differs", i)
		}
		for j := range a.X[i] {
			if math.Float64bits(a.X[i][j]) != math.Float64bits(b.X[i][j]) {
				return fmt.Errorf("pair %d feature %d differs", i, j)
			}
		}
	}
	return nil
}

// sessionRun is one session's outcome.
type sessionRun struct {
	id     string
	steps  []time.Duration
	labels int
	aulc   float64
	digest string
	// oracle counters
	queries, batches, answers, granted, abstains int
	spent                                        float64
	// trainRows sums the labeled-set size over every fit;
	// evalRows the evaluated rows over every evaluate phase.
	trainRows, evalRows int
}

// roundRun is one pass over every session of the workload.
type roundRun struct {
	wall     time.Duration
	sessions []sessionRun
}

func (r roundRun) labels() int {
	n := 0
	for _, s := range r.sessions {
		n += s.labels
	}
	return n
}

// runRound runs every session of the workload once, in a fixed order.
func (s alSpec) runRound(ctx context.Context, tr *tracer, seed int64, pools []dsPools, o *outcome) roundRun {
	root := tr.open("round", 0, "round")
	defer tr.close(root)
	start := time.Now()
	var r roundRun
	for di, p := range pools {
		for si, spec := range s.sessions {
			id := fmt.Sprintf("%s/%s", p.d.Name, spec.name)
			r.sessions = append(r.sessions, s.runSession(ctx, tr, root, id, spec, p, derive(seed, id, di*100+si), o))
		}
	}
	r.wall = time.Since(start)
	return r
}

func (s alSpec) runSession(ctx context.Context, tr *tracer, parent int, id string, spec sessionSpec,
	p dsPools, seed int64, o *outcome) sessionRun {
	sr := sessionRun{id: id}
	o.attempted++
	pool := p.float
	if spec.boolPool {
		pool = p.bits
	}
	cfg := core.Config{MaxLabels: s.maxLabels, Seed: seed}
	learner := spec.learner(p.d, derive(seed, "learner", 0))
	sel, err := core.NewSelector(spec.selector, core.SelectorParams{Seed: derive(seed, "selector", 0)})
	if err != nil {
		o.fail("%s: %v", id, err)
		return sr
	}
	var sess *core.Session
	var llm *oracle.SimulatedLLMOracle
	var perfect *oracle.Perfect
	if s.priced {
		cfg.MaxDollars = dollarCap
		llm = oracle.NewSimulatedLLM(p.d, llmConfig, derive(seed, "oracle", 0))
		sess, err = core.NewBatchSession(pool, learner, sel, llm, cfg)
	} else {
		perfect = oracle.NewPerfect(p.d)
		sess, err = core.NewSession(pool, learner, sel, perfect, cfg)
	}
	if err != nil {
		o.fail("%s: %v", id, err)
		return sr
	}

	sid := tr.open("session", parent, id)
	var stepID int
	type selSpan struct {
		id, iter int
		start    time.Time
	}
	var selects []selSpan
	evals := 0
	sess.AddObserver(core.ObserverFunc(func(e core.Event) {
		pd, ok := e.(core.PhaseDone)
		if !ok {
			return
		}
		switch pd.Phase {
		case "train":
			sr.trainRows += pd.Labels
		case "evaluate":
			evals++
		case "seed", "label":
			sr.batches++
		}
		if tr == nil {
			return
		}
		end := time.Now()
		start := end.Add(-pd.Elapsed)
		name := "core." + pd.Phase
		if pd.Phase == "train" {
			name = spec.family + ".train"
		}
		sp := tr.add(name, stepID, id, start, end)
		if pd.Phase == "select" {
			selects = append(selects, selSpan{sp, pd.Iteration, start})
		}
	}))

	for {
		stepID = tr.open("step", sid, id)
		o.attempted++
		t0 := time.Now()
		done, err := sess.Step(ctx)
		sr.steps = append(sr.steps, time.Since(t0))
		tr.close(stepID)
		if err != nil {
			o.fail("%s: step %d: %v", id, len(sr.steps), err)
			break
		}
		if done {
			break
		}
	}
	tr.close(sid)

	res := sess.Result()
	// The selector's committee/score split is known per curve point;
	// place it inside the select span it belongs to.
	for _, sel := range selects {
		if sel.iter < 0 || sel.iter >= len(res.Curve) {
			continue
		}
		pt := res.Curve[sel.iter]
		cEnd := sel.start.Add(pt.CommitteeCreateTime)
		tr.add("core.select.committee", sel.id, id, sel.start, cEnd)
		tr.add("core.select.score", sel.id, id, cEnd, cEnd.Add(pt.ScoreTime))
	}
	sr.labels = res.LabelsUsed
	sr.evalRows = evals * res.TestSize
	sr.aulc = res.Curve.AULC()
	sr.digest = curveDigest(res)
	if s.priced {
		led := sess.Ledger()
		sr.queries, sr.batches = llm.Queries(), llm.Batches()
		sr.granted, sr.abstains, sr.spent = llm.Labels(), llm.Abstains(), led.Spent
		sr.answers = llm.Labels() + llm.Abstains()
		switch {
		case sess.Reason() == core.StopSelectorEmpty && spec.selector == "lfp-lfn":
			// LFP/LFN's own termination: no likely false positive or
			// negative is left to ask about (§4.3), possibly before the
			// money runs out.
		case sess.Reason() != core.StopBudgetExhausted:
			o.fail("%s stopped with %q, want %q", id, sess.Reason(), core.StopBudgetExhausted)
		case led.Spent > dollarCap+1e-9:
			o.fail("%s spent $%.6f over its $%.2f cap", id, led.Spent, dollarCap)
		}
	} else {
		sr.queries = perfect.Queries()
		sr.granted, sr.answers = sr.queries, sr.queries
		if sess.Reason() != core.StopBudget || res.LabelsUsed != s.maxLabels {
			o.fail("%s stopped with %q at %d labels, want %q at %d",
				id, sess.Reason(), res.LabelsUsed, core.StopBudget, s.maxLabels)
		}
	}
	return sr
}

// curveDigest hashes what a session learned — every curve point's label
// count and quality, the stop reason and the dollars spent — and none of
// its timings, so two runs of the same inputs must agree on it.
func curveDigest(res *core.Result) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, pt := range res.Curve {
		put(uint64(pt.Labels))
		put(math.Float64bits(pt.F1))
		put(math.Float64bits(pt.Precision))
		put(math.Float64bits(pt.Recall))
		put(math.Float64bits(pt.Spent))
	}
	put(uint64(res.LabelsUsed))
	put(uint64(res.Reason))
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// sameDigests fails every session of got whose curve differs from ref's
// and reports whether all agreed.
func sameDigests(what string, ref, got roundRun, o *outcome) bool {
	same := len(got.sessions) == len(ref.sessions)
	for i, s := range got.sessions {
		if i >= len(ref.sessions) || ref.sessions[i].digest != s.digest {
			o.fail("%s: session %s curve digest differs from the reference", what, s.id)
			same = false
		}
	}
	return same
}

func runAL(ctx context.Context, opt options, spec alSpec) (*outcome, error) {
	if opt.trace {
		return runALTraced(ctx, opt, spec)
	}
	o := &outcome{metrics: metricSet{}}
	var pools []dsPools
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		pools = nil
		runtime.GC()
		start := time.Now()
		var err error
		if pools, err = spec.setup(opt.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	runtime.GC()

	// Every round repeats the same work, so each step has one wall time
	// per round. A step's wait is its fastest repeat: interference from
	// the host only ever adds time, so the fastest repeat is the closest
	// to the program's own cost, and a stretch the host slowed down moves
	// no figure.
	var rounds []roundRun
	n := minRounds
	if spec.round > 0 {
		n = max(n, int(opt.seconds*float64(time.Second)/float64(spec.round)))
	}
	for len(rounds) < n {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r := spec.runRound(ctx, nil, opt.seed, pools, o)
		if len(rounds) > 0 && !sameDigests("repeat round", rounds[0], r, o) {
			break // counted as failed; its steps do not align with round 1's
		}
		rounds = append(rounds, r)
	}
	var waits, walls []float64
	roundWait := 0.0
	for si, s := range rounds[0].sessions {
		for k := range s.steps {
			fastest := math.Inf(1)
			for _, r := range rounds {
				fastest = math.Min(fastest, ms(r.sessions[si].steps[k]))
			}
			waits = append(waits, fastest)
			roundWait += fastest
		}
	}
	for _, r := range rounds {
		walls = append(walls, ms(r.wall))
	}
	var aulc float64
	for _, s := range rounds[0].sessions {
		aulc += s.aulc
	}
	aulc /= float64(len(rounds[0].sessions))
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	m := o.metrics
	m.set("setup_s", median(setups), "s")
	m.set("wait_mean_ms", mean(waits), "ms")
	m.set("wait_tail_ms", quantile(waits, 0.9), "ms")
	m.set("long_ms", roundWait, "ms")
	m.set("throughput_per_s", float64(rounds[0].labels())/(roundWait/1e3), "1/s")
	m.set("quality", aulc, "score")
	m.set("peak_rss_mb", rss, "MB")
	fmt.Printf("al: %d rounds (%.0f ms each), %d steps per round, first-round digests %v\n",
		len(rounds), walls, len(waits), digests(rounds[0]))
	return o, nil
}

func digests(r roundRun) map[string]string {
	out := map[string]string{}
	for _, s := range r.sessions {
		out[s.id] = s.digest
	}
	return out
}

// runALTraced is the traced variant: an untraced set-up and round first
// (the reference for the output checks and the tracing overhead), then
// the same set-up built from traced layer calls and a traced round.
func runALTraced(ctx context.Context, opt options, spec alSpec) (*outcome, error) {
	o := &outcome{metrics: metricSet{}}
	runtime.GC()
	start := time.Now()
	ref, err := spec.setup(opt.seed)
	if err != nil {
		return nil, err
	}
	refSetup := time.Since(start)
	refRound := spec.runRound(ctx, nil, opt.seed, ref, o)
	ref = nil
	runtime.GC()

	tr := newTracer()
	var st pipelineCounts
	mem := markMem()
	start = time.Now()
	pools, err := spec.tracedSetup(ctx, tr, opt.seed, &st)
	if err != nil {
		return nil, err
	}
	tracedSetup := time.Since(start)
	round := spec.runRound(ctx, tr, opt.seed, pools, o)
	memd := mem.since()

	// The assembled pools must equal the constructors' pools; rebuild the
	// reference after the timed phase so both are not held while timing.
	ref, err = spec.setup(opt.seed)
	if err != nil {
		return nil, err
	}
	if err := samePools(ref, pools); err != nil {
		o.fail("traced set-up differs from core.NewPool/NewBoolPool: %v", err)
	}
	sameDigests("traced round", refRound, round, o)

	p := tr.profile()
	unattr := p.unattributed()
	if frac := ratio(unattr.Seconds(), p.wall.Seconds()); frac > 0.10 {
		o.fail("layer self-times cover %.1f%% of the traced wall, want ≥90%%", 100*(1-frac))
	}
	path, err := tr.write(traceDir(opt.root), fmt.Sprintf("%s-seed%d.jsonl", opt.workload, opt.seed))
	if err != nil {
		return nil, err
	}
	fmt.Printf("al: trace written to %s (%d steps, traced wall %.3fs)\n", path, p.count["step"], p.wall.Seconds())

	m := o.metrics
	m.layer("dataset.load_s", p.sec("dataset.load"))
	st.metrics(m, p)
	for _, fam := range []string{"tree", "linear", "neural", "rules"} {
		m.layer(fam+".train_s", p.sec(fam+".train"))
	}
	var oc sessionRun
	for _, s := range round.sessions {
		oc.trainRows += s.trainRows
		oc.evalRows += s.evalRows
		oc.queries += s.queries
		oc.batches += s.batches
		oc.abstains += s.abstains
		oc.spent += s.spent
		oc.granted += s.granted
		oc.answers += s.answers
	}
	m.layer("core.train_rows", float64(oc.trainRows))
	m.layer("core.seed_s", p.sec("core.seed"))
	m.layer("core.evaluate_s", p.sec("core.evaluate"))
	m.layer("core.evaluate_rows", float64(oc.evalRows))
	m.layer("core.select_s", p.sec("core.select"))
	m.layer("core.select.committee_s", p.sec("core.select.committee"))
	m.layer("core.select.score_s", p.sec("core.select.score"))
	m.layer("core.label_s", p.sec("core.label"))
	m.layer("core.steps", float64(p.count["step"]))
	m.layer("core.unattributed_s", unattr.Seconds())
	m.layer("core.unattributed_frac", ratio(unattr.Seconds(), p.wall.Seconds()))
	m.layer("oracle.queries", float64(oc.queries))
	m.layer("oracle.batches", float64(oc.batches))
	m.layer("oracle.abstains", float64(oc.abstains))
	m.layer("oracle.spent_usd", oc.spent)
	m.layer("oracle.useful_frac", ratio(float64(oc.granted), float64(oc.answers)))
	memd.metrics(m)
	m.layer("trace.overhead_frac", (tracedSetup+round.wall).Seconds()/(refSetup+refRound.wall).Seconds()-1)
	return o, nil
}
