// Command almatch trains a reusable EM model with active learning and
// applies it to fresh table pairs — the deployment workflow that §2 of
// the paper holds up against per-instance crowd-sourcing.
//
// Train a model on a benchmark dataset and save it:
//
//	almatch -mode train -dataset beer -scale 1.0 -model forest.json
//
// Any registered selection strategy works via -selector (list them with
// -list-selectors), including the diversity-aware Scorer×Picker
// recombinations; margin-family strategies need -learner svm:
//
//	almatch -mode train -dataset beer -learner svm -selector kcenter-margin \
//	        -model svm.json
//
// Apply a saved model to your own tables (CSV with a leading id column):
//
//	almatch -mode apply -model forest.json -left left.csv -right right.csv \
//	        -out matches.csv
//
// Training with -checkpoint writes an atomic snapshot every iteration
// and journals each granted label to <checkpoint>.wal, so a killed run
// resumes with -resume to the identical model without re-paying for any
// label already granted:
//
//	almatch -mode train -dataset beer -checkpoint run.ckpt -model forest.json
//	# ... killed mid-run ...
//	almatch -mode train -dataset beer -checkpoint run.ckpt -resume -model forest.json
//
// The model file is a unified artifact (alem.SaveModel) carrying the
// schema, blocking threshold and featurization, so apply mode needs no
// pipeline flags; -threshold overrides the stored blocking threshold.
package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"

	"github.com/alem/alem"
)

func main() {
	var (
		mode      = flag.String("mode", "", "train or apply")
		datasetN  = flag.String("dataset", "beer", "training dataset profile")
		scale     = flag.Float64("scale", 1.0, "training dataset scale")
		seed      = flag.Int64("seed", 42, "RNG seed")
		modelPath = flag.String("model", "model.json", "model file")
		trees     = flag.Int("trees", 20, "forest size (train mode)")
		maxLabels = flag.Int("maxlabels", 0, "label budget (0 = until convergence)")
		leftPath  = flag.String("left", "", "left table CSV (apply mode)")
		rightPath = flag.String("right", "", "right table CSV (apply mode)")
		threshold = flag.Float64("threshold", -1, "blocking Jaccard threshold override (apply mode; default: the artifact's)")
		outPath   = flag.String("out", "", "output matches CSV (apply mode; default stdout)")
		progress  = flag.Bool("progress", false, "stream per-iteration progress to stderr (train mode)")
		ckpt      = flag.String("checkpoint", "", "snapshot file for crash-safe training; labels journal to <file>.wal (train mode)")
		resume    = flag.Bool("resume", false, "resume the run in -checkpoint instead of starting fresh (train mode)")
		flaky     = flag.Float64("flaky", 0, "inject this transient oracle-failure rate, with retries — a resilience drill (train mode)")
		workers   = flag.Int("workers", 0, "worker goroutines for selection/evaluation; 0 = all CPUs, 1 = serial — results are identical either way (train mode)")
		tracePath = flag.String("trace", "", "write a JSONL run manifest (one span per phase per iteration) to this file; summarize with aldiag -trace (train mode)")
		selector  = flag.String("selector", "forest-qbc", "selection strategy; see -list-selectors (train mode)")
		learnerN  = flag.String("learner", "forest", "learner family: forest or svm (train mode)")
		listSel   = flag.Bool("list-selectors", false, "list registered selection strategies and exit")

		warmstart   = flag.String("warmstart", "", "model file whose learner seeds the run (transfer warm-start; skips the seed bootstrap, train mode)")
		llmOracle   = flag.Bool("llm-oracle", false, "label via the priced, abstaining simulated LLM labeler instead of the free perfect oracle (train mode)")
		abstainRate = flag.Float64("abstain", 0.1, "simulated labeler abstention rate (with -llm-oracle)")
		llmNoise    = flag.Float64("llm-noise", 0, "simulated labeler wrong-verdict rate (with -llm-oracle)")
		priceLabel  = flag.Float64("price-label", 0.002, "dollars billed per delivered verdict (with -llm-oracle)")
		priceAbst   = flag.Float64("price-abstain", 0.0005, "dollars billed per abstention (with -llm-oracle)")
		maxDollars  = flag.Float64("max-dollars", 0, "dollar budget; 0 = unlimited — the run stops before overdrawing it (with -llm-oracle)")
	)
	flag.Parse()

	if *listSel {
		fmt.Print(alem.FormatSelectorList())
		return
	}

	var err error
	switch *mode {
	case "train":
		err = train(trainOpts{
			dataset: *datasetN, scale: *scale, seed: *seed,
			modelPath: *modelPath, trees: *trees, maxLabels: *maxLabels,
			progress: *progress, checkpoint: *ckpt, resume: *resume, flaky: *flaky,
			workers: *workers, trace: *tracePath,
			selector: *selector, learner: *learnerN,
			warmstart: *warmstart, llmOracle: *llmOracle,
			abstainRate: *abstainRate, llmNoise: *llmNoise,
			priceLabel: *priceLabel, priceAbstain: *priceAbst, maxDollars: *maxDollars,
		})
	case "apply":
		err = apply(*modelPath, *leftPath, *rightPath, *threshold, *outPath)
	default:
		fmt.Fprintln(os.Stderr, "almatch: -mode must be train or apply")
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "almatch: %v\n", err)
		os.Exit(1)
	}
}

type trainOpts struct {
	dataset    string
	scale      float64
	seed       int64
	modelPath  string
	trees      int
	maxLabels  int
	progress   bool
	checkpoint string
	resume     bool
	flaky      float64
	workers    int
	trace      string
	selector   string
	learner    string

	warmstart    string
	llmOracle    bool
	abstainRate  float64
	llmNoise     float64
	priceLabel   float64
	priceAbstain float64
	maxDollars   float64
}

func train(o trainOpts) error {
	if o.resume && o.checkpoint == "" {
		return errors.New("-resume needs -checkpoint, the snapshot file of the run to resume")
	}
	d, err := alem.LoadDataset(o.dataset, o.scale, o.seed)
	if err != nil {
		return err
	}
	pool := alem.NewPool(d)
	var learner alem.Learner
	switch o.learner {
	case "", "forest":
		learner = alem.NewRandomForest(o.trees, o.seed)
	case "svm":
		learner = alem.NewSVM(o.seed)
	default:
		return fmt.Errorf("-learner %q: must be forest or svm", o.learner)
	}
	sel, err := alem.NewSelector(o.selector, alem.SelectorParams{Seed: o.seed})
	if err != nil {
		return err
	}
	// Fail a mismatched -learner/-selector pair here, before any dataset
	// labels are spent (the same check session construction runs).
	if err := alem.ValidateSelection(learner, sel); err != nil {
		return err
	}
	cfg := alem.Config{Seed: o.seed, MaxLabels: o.maxLabels, TargetF1: 0.99, Workers: o.workers}

	// Two labeling back ends share one session path: the free oracle
	// (with optional -flaky fault injection plus retries), asked one
	// pair per call, and the priced, abstaining simulated LLM labeler,
	// where -flaky maps to the simulator's per-answer failure rate and
	// -max-dollars arms the dollar budget.
	var labeler alem.BatchOracle
	if o.llmOracle {
		cfg.MaxDollars = o.maxDollars
		labeler = alem.NewSimulatedLLMOracle(d, alem.LLMSimConfig{
			AbstainRate: o.abstainRate,
			NoiseRate:   o.llmNoise,
			FailRate:    o.flaky,
			Price:       alem.PriceTable{PerLabel: o.priceLabel, PerAbstain: o.priceAbstain},
		}, o.seed)
	} else {
		labeler = alem.BatchOfOracle(alem.NewPerfectOracle(d))
		if o.flaky > 0 {
			labeler = alem.NewRetryOracle(alem.NewFaultyOracle(labeler, o.flaky, o.seed),
				alem.RetryPolicy{}, o.seed)
		}
	}

	// One session for a fresh, a checkpointed and a resumed run alike:
	// -resume loads the checkpoint's protocol and state into it, and only
	// -workers keeps the value given here.
	session, err := alem.NewBatchSession(pool, learner, sel, labeler, cfg)
	if err != nil {
		return err
	}
	var wal *alem.LabelWAL
	walPath := o.checkpoint + ".wal"
	switch {
	case o.checkpoint != "" && o.resume:
		f, err := os.Open(o.checkpoint)
		if err != nil {
			return fmt.Errorf("resume: %w", err)
		}
		sn, err := alem.ReadSessionSnapshot(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("resume %s: %w", o.checkpoint, err)
		}
		w, records, err := alem.OpenLabelWAL(walPath)
		if err != nil {
			return err
		}
		wal = w
		if err := session.Resume(sn, records); err != nil {
			wal.Close()
			return err
		}
		fmt.Fprintf(os.Stderr, "resuming from %s: iteration %d, %d labels snapshotted, %d journaled\n",
			o.checkpoint, sn.Iteration, len(sn.Labeled), len(records))
	case o.checkpoint != "":
		// A fresh run owns its checkpoint: stale files from an earlier run
		// would poison the WAL replay, so they are removed up front.
		os.Remove(o.checkpoint)
		os.Remove(walPath)
		w, _, err := alem.OpenLabelWAL(walPath)
		if err != nil {
			return err
		}
		wal = w
	}
	if o.warmstart != "" {
		f, err := os.Open(o.warmstart)
		if err != nil {
			return fmt.Errorf("warmstart: %w", err)
		}
		art, err := alem.LoadModel(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("warmstart %s: %w", o.warmstart, err)
		}
		if err := session.SetWarmStart(art.Learner); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "warm-start from %s: %s trained on %s drives selection until handover\n",
			o.warmstart, art.Learner.Name(), art.Meta.Dataset)
	}
	if wal != nil {
		session.SetLabelSink(wal)
		defer wal.Close()
	}

	var trace *alem.Trace
	if o.trace != "" {
		trace = alem.NewTrace()
		session.AddObserver(alem.NewTraceObserver(trace))
	}

	if o.progress {
		session.AddObserver(alem.ObserverFunc(func(e alem.Event) {
			switch ev := e.(type) {
			case alem.PhaseDone:
				if ev.Phase == "evaluate" {
					fmt.Fprintf(os.Stderr, "iter %3d: labels=%d F1=%.3f\n",
						ev.Iteration, ev.Point.Labels, ev.Point.F1)
				}
			case alem.OracleFault:
				fmt.Fprintf(os.Stderr, "iter %3d: pair (%d,%d) failed, requeued: %v\n",
					ev.Iteration, ev.Pair.L, ev.Pair.R, ev.Err)
			case alem.OracleBatchDone:
				if o.llmOracle { // a free round has no bill to report
					fmt.Fprintf(os.Stderr, "iter %3d: batch of %d -> %d labels, %d abstain; spent $%.4f\n",
						ev.Iteration, ev.Pairs, ev.Labels, ev.Abstains, ev.Spent)
				}
			}
		}))
	}

	// Ctrl-C stops labeling but still saves the model trained so far; a
	// stalled oracle (every query in a round failing) does the same.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// Snapshot every step boundary, atomically: before the first Step and
	// after each Step that returned no error. A cancelled or failed Step
	// leaves the last boundary's checkpoint in place, and the WAL holds
	// the answers its partial round paid for, so -resume replays them
	// onto the uninterrupted trajectory.
	checkpoint := func() error {
		if o.checkpoint == "" {
			return nil
		}
		if err := alem.WriteFileAtomic(o.checkpoint, session.Snapshot().Encode); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		return nil
	}
	if err := checkpoint(); err != nil {
		return err
	}
	var runErr error
	for {
		done, err := session.Step(ctx)
		if err != nil {
			runErr = err
			break
		}
		if err := checkpoint(); err != nil {
			return err
		}
		if done {
			break
		}
	}
	if trace != nil {
		// The manifest covers whatever ran, so an interrupted run still
		// leaves its phase timings behind for aldiag.
		if terr := alem.WriteFileAtomic(o.trace, trace.WriteManifest); terr != nil {
			return fmt.Errorf("trace manifest: %w", terr)
		}
		fmt.Fprintf(os.Stderr, "run manifest (%d spans) written to %s\n", trace.Len(), o.trace)
	}
	if runErr != nil && !errors.Is(runErr, context.Canceled) && !errors.Is(runErr, alem.ErrLabelingStalled) {
		return runErr
	}
	res := session.Result()
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "%v; saving the model as of iteration %d\n", runErr, len(res.Curve))
	}
	fmt.Printf("trained %s/%s on %s: best F1 %.3f with %d labels (%s)\n",
		learner.Name(), sel.Name(), o.dataset, res.Curve.BestF1(), res.LabelsUsed, res.Reason)
	if o.llmOracle {
		led := session.Ledger()
		fmt.Printf("labeling bill: %d answers (%d labels, %d abstentions), $%.4f spent\n",
			led.Answers, led.Labels, led.Abstains, led.Spent)
	}
	// The unified artifact records the schema, blocking threshold and
	// featurization alongside the learner, so apply mode and almserve can
	// rebuild the exact pipeline with no extra flags. Written atomically:
	// a crash mid-save must not leave a torn model file behind.
	if err := alem.WriteFileAtomic(o.modelPath, func(w io.Writer) error {
		return alem.SaveModel(w, learner, alem.ModelMeta{
			Schema:         d.Left.Schema,
			BlockThreshold: d.BlockThreshold,
			Dataset:        o.dataset,
			Labels:         res.LabelsUsed,
		})
	}); err != nil {
		return err
	}
	fmt.Printf("model saved to %s\n", o.modelPath)
	if o.checkpoint != "" && runErr == nil {
		// The run finished; its checkpoint would otherwise resume a done
		// session, so clean up. Interrupted runs keep theirs for -resume.
		os.Remove(o.checkpoint)
		os.Remove(walPath)
	}
	return nil
}

func apply(modelPath, leftPath, rightPath string, threshold float64, outPath string) error {
	if leftPath == "" || rightPath == "" {
		return fmt.Errorf("apply mode needs -left and -right")
	}
	m, err := loadMatcher(modelPath)
	if err != nil {
		return err
	}
	if threshold >= 0 {
		m.BlockThreshold = threshold
	}
	left, err := readTable("left", leftPath)
	if err != nil {
		return err
	}
	right, err := readTable("right", rightPath)
	if err != nil {
		return err
	}
	// Ctrl-C aborts cleanly mid-pipeline instead of finishing the scan.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	pairs, candidates, err := m.Match(ctx, left, right)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "scored %d candidate pairs, predicted %d matches\n",
		candidates, len(pairs))

	out := os.Stdout
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	w := csv.NewWriter(out)
	if err := w.Write([]string{"left_id", "right_id", "confidence"}); err != nil {
		return err
	}
	for _, p := range pairs {
		if err := w.Write([]string{p.LeftID, p.RightID, strconv.FormatFloat(p.Confidence, 'f', 4, 64)}); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

// loadMatcher reads a unified SaveModel artifact, falling back to the
// legacy bare-forest format older almatch versions wrote.
func loadMatcher(modelPath string) (*alem.Matcher, error) {
	raw, err := os.ReadFile(modelPath)
	if err != nil {
		return nil, err
	}
	art, artErr := alem.LoadModel(bytes.NewReader(raw))
	if artErr == nil {
		return art.Matcher(), nil
	}
	forest, legacyErr := alem.LoadRandomForest(bytes.NewReader(raw))
	if legacyErr != nil {
		return nil, fmt.Errorf("%s is neither a model artifact (%v) nor a legacy forest (%v)",
			modelPath, artErr, legacyErr)
	}
	fmt.Fprintf(os.Stderr, "almatch: %s is a legacy bare-forest file; retrain to embed schema and threshold\n", modelPath)
	return &alem.Matcher{Learner: forest, BlockThreshold: 0.16}, nil
}

func readTable(name, path string) (*alem.Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return alem.ReadTableCSV(name, f)
}
