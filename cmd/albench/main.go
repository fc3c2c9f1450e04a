// Command albench runs the benchmark's experiments: every table and
// figure of the paper's evaluation can be regenerated by id.
//
// Usage:
//
//	albench -list
//	albench -experiment table1
//	albench -experiment all -scale 1.0 -maxlabels 2360 -runs 5
//
// The same knobs are readable from the environment (ALEM_SCALE,
// ALEM_MAXLABELS, ALEM_RUNS, ALEM_SEED), which the go-test benchmark
// harness uses.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"github.com/alem/alem"
)

func main() {
	defaults := alem.DefaultExperimentOptions()
	var (
		list       = flag.Bool("list", false, "list experiment ids and exit")
		experiment = flag.String("experiment", "", "experiment id (table1, fig8, ..., fig19) or \"all\"")
		scale      = flag.Float64("scale", defaults.Scale, "dataset scale (1.0 = paper post-blocking sizes)")
		maxLabels  = flag.Int("maxlabels", defaults.MaxLabels, "label budget per run (paper: 2360 for perfect-Oracle figures)")
		runs       = flag.Int("runs", defaults.Runs, "seeds averaged in noisy-Oracle experiments (paper: 5)")
		seed       = flag.Int64("seed", defaults.Seed, "base RNG seed")
		verbose    = flag.Bool("v", false, "print every curve checkpoint")
		asJSON     = flag.Bool("json", false, "emit machine-readable JSON instead of text")
		progress   = flag.Bool("progress", false, "stream per-iteration progress to stderr")
		tracePath  = flag.String("trace", "", "write a JSONL run manifest of every phase span to this file; summarize with aldiag -trace")
		listSel    = flag.Bool("list-selectors", false, "list registered selection strategies and exit")
	)
	flag.Parse()

	if *listSel {
		fmt.Print(alem.FormatSelectorList())
		return
	}
	if *list {
		for _, id := range alem.ExperimentIDs() {
			fmt.Println(id)
		}
		for _, id := range alem.AblationIDs() {
			fmt.Println(id)
		}
		return
	}
	if *experiment == "" {
		fmt.Fprintln(os.Stderr, "albench: -experiment is required (or -list); e.g. -experiment table2")
		flag.Usage()
		os.Exit(2)
	}
	if err := (alem.Config{MaxLabels: *maxLabels}).Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "albench: -maxlabels: %v\n", err)
		os.Exit(2)
	}
	if *scale <= 0 {
		fmt.Fprintf(os.Stderr, "albench: -scale %v must be positive\n", *scale)
		os.Exit(2)
	}
	if *runs <= 0 {
		fmt.Fprintf(os.Stderr, "albench: -runs %d must be positive\n", *runs)
		os.Exit(2)
	}

	// Ctrl-C cancels in-flight runs: every experiment driver returns its
	// report with whatever partial curves completed instead of being
	// killed mid-run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := alem.ExperimentOptions{
		Scale: *scale, MaxLabels: *maxLabels, Runs: *runs, Seed: *seed, Verbose: *verbose,
		Context: ctx,
	}
	var observers []alem.Observer
	if *progress {
		observers = append(observers, alem.ObserverFunc(func(e alem.Event) {
			switch ev := e.(type) {
			case alem.PhaseDone:
				if ev.Phase == "evaluate" {
					fmt.Fprintf(os.Stderr, "  iter %3d: labels=%d F1=%.3f\n",
						ev.Iteration, ev.Point.Labels, ev.Point.F1)
				}
			case alem.RunEnd:
				fmt.Fprintf(os.Stderr, "  run end: %s (%d labels)\n", ev.Reason, ev.LabelsUsed)
			}
		}))
	}
	var trace *alem.Trace
	if *tracePath != "" {
		trace = alem.NewTrace()
		observers = append(observers, alem.NewTraceObserver(trace))
	}
	if len(observers) > 0 {
		opts.Observer = alem.ObserverFunc(func(e alem.Event) {
			for _, o := range observers {
				o.Observe(e)
			}
		})
	}
	ids := []string{*experiment}
	switch *experiment {
	case "all":
		ids = alem.ExperimentIDs()
	case "ablations":
		ids = alem.AblationIDs()
	}
	for _, id := range ids {
		start := time.Now()
		if *asJSON {
			rep, err := alem.RunExperiment(id, opts, nil)
			if err != nil {
				fmt.Fprintf(os.Stderr, "albench: %s: %v\n", id, err)
				os.Exit(1)
			}
			if err := rep.WriteJSON(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "albench: %s: %v\n", id, err)
				os.Exit(1)
			}
			continue
		}
		if _, err := alem.RunExperiment(id, opts, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "albench: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Printf("(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	if trace != nil {
		if err := alem.WriteFileAtomic(*tracePath, trace.WriteManifest); err != nil {
			fmt.Fprintf(os.Stderr, "albench: trace manifest: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "run manifest (%d spans) written to %s\n", trace.Len(), *tracePath)
	}
}
