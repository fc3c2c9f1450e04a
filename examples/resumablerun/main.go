// Resumablerun: drive active learning through the Session engine with
// crash-safe persistence — an atomic snapshot on disk plus a label
// write-ahead log — then "kill" the process mid-run and resume it in a
// second process to the identical curve an uninterrupted run produces.
//
// This is the workflow for expensive labeling campaigns: a crashed or
// cancelled run costs none of the Oracle labels already paid for. The
// snapshot is written with temp+fsync+rename so a reader never sees a
// torn file, and the WAL records every granted label the instant it is
// paid for, so even labels granted after the last snapshot survive.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"github.com/alem/alem"
)

func main() {
	d, err := alem.LoadDataset("beer", 1.0, 42)
	if err != nil {
		log.Fatal(err)
	}
	pool := alem.NewPool(d)
	cfg := alem.Config{Seed: 1, MaxLabels: 150}

	dir, err := os.MkdirTemp("", "resumablerun")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	ckptPath := filepath.Join(dir, "session.ckpt")
	walPath := filepath.Join(dir, "labels.wal")

	// Phase 1: the "first process". The oracle is asked one pair per
	// call, and every granted label goes to the WAL before the next
	// query; a snapshot is written atomically at iteration 3.
	// The process then runs two more iterations — whose labels exist only
	// in the WAL — before dying without warning.
	oracle := alem.NewPerfectOracle(d)
	session, err := alem.NewBatchSession(pool, alem.NewSVM(1), alem.MarginSelector{},
		alem.BatchOfOracle(oracle), cfg)
	if err != nil {
		log.Fatal(err)
	}
	wal, _, err := alem.OpenLabelWAL(walPath)
	if err != nil {
		log.Fatal(err)
	}
	session.SetLabelSink(wal)
	session.AddObserver(alem.ObserverFunc(func(e alem.Event) {
		if pd, ok := e.(alem.PhaseDone); ok && pd.Phase == "evaluate" {
			fmt.Printf("  iter %d: labels=%d F1=%.3f\n", pd.Iteration, pd.Point.Labels, pd.Point.F1)
		}
	}))
	fmt.Println("first process: snapshot at iteration 3, killed after iteration 5")
	for i := 0; i < 5; i++ {
		if done, err := session.Step(context.Background()); done || err != nil {
			log.Fatalf("run ended early: done=%v err=%v", done, err)
		}
		if i == 2 {
			if err := alem.WriteFileAtomic(ckptPath, session.Snapshot().Encode); err != nil {
				log.Fatal(err)
			}
		}
	}
	// Simulated kill: the session object is abandoned with labels granted
	// after the snapshot. Only the WAL's fsync'd records remember them.
	paidBeforeCrash := oracle.Queries()
	wal.Close()
	fmt.Printf("crashed with %d labels paid, snapshot at iteration 3 on disk\n\n", paidBeforeCrash)

	// Phase 2: the "second process" reloads the snapshot and replays the
	// WAL. Labels granted after the snapshot are served from the journal
	// when the resumed run re-selects their pairs — the oracle is never
	// asked for them again.
	f, err := os.Open(ckptPath)
	if err != nil {
		log.Fatal(err)
	}
	sn, err := alem.ReadSessionSnapshot(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	wal2, records, err := alem.OpenLabelWAL(walPath)
	if err != nil {
		log.Fatal(err)
	}
	defer wal2.Close()
	// The session is built with the run's wiring, exactly as the first
	// process built its own; Resume loads the snapshot's state into it.
	oracle2 := alem.NewPerfectOracle(d)
	resumed, err := alem.NewBatchSession(pool, alem.NewSVM(1), alem.MarginSelector{},
		alem.BatchOfOracle(oracle2), cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := resumed.Resume(sn, records); err != nil {
		log.Fatal(err)
	}
	resumed.SetLabelSink(wal2)
	fmt.Printf("second process: resuming from snapshot (%d labels) + WAL (%d records)\n",
		len(sn.Labeled), len(records))
	res, err := resumed.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resumed run: %d labels, best F1 %.3f, stopped because %s\n",
		res.LabelsUsed, res.Curve.BestF1(), res.Reason)

	// The resumed curve is identical to an uninterrupted run's, and no
	// label was paid for twice: the second process's oracle answered only
	// the queries beyond what the WAL already held.
	uninterrupted := alem.Run(pool, alem.NewSVM(1), alem.MarginSelector{},
		alem.NewPerfectOracle(d), cfg)
	identical := len(res.Curve) == len(uninterrupted.Curve)
	for i := 0; identical && i < len(res.Curve); i++ {
		identical = res.Curve[i].F1 == uninterrupted.Curve[i].F1
	}
	fmt.Printf("identical to an uninterrupted run: %v\n", identical)
	fmt.Printf("labels paid: %d before the crash + %d after = %d total (no label paid twice)\n",
		paidBeforeCrash, oracle2.Queries(), paidBeforeCrash+oracle2.Queries())
}
