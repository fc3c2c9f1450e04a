package diag

import (
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/alem/alem/internal/core"
)

// EventLog is a core.Observer that renders a Session's event stream as a
// human-readable, timestamped trace — the diagnostic companion to the
// live progress lines in the CLIs. At most one line per event, relative
// timestamps since the log was created, so a slow phase is visible as a
// gap between its line and the one before.
//
// EventLog serializes writes with a mutex, so one log may observe
// several concurrent runs (interleaved lines, consistent formatting).
type EventLog struct {
	mu    sync.Mutex
	w     io.Writer
	start time.Time
	now   func() time.Time
}

// NewEventLog returns an EventLog writing to w.
func NewEventLog(w io.Writer) *EventLog {
	return newEventLog(w, time.Now)
}

// newEventLog injects the clock for deterministic tests.
func newEventLog(w io.Writer, now func() time.Time) *EventLog {
	return &EventLog{w: w, start: now(), now: now}
}

// Observe implements core.Observer.
func (l *EventLog) Observe(e core.Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	elapsed := l.now().Sub(l.start).Round(time.Millisecond)
	switch ev := e.(type) {
	case core.PhaseDone:
		// The seed and label spans repeat what the batch lines show, and
		// a select that ends the run picked nothing: they render no line
		// (trace observers collect every span).
		switch {
		case ev.Phase == "train":
			fmt.Fprintf(l.w, "[%8s] iter %3d  train      n=%d in %s\n",
				elapsed, ev.Iteration, ev.Labels, ev.Elapsed.Round(time.Microsecond))
		case ev.Phase == "evaluate":
			fmt.Fprintf(l.w, "[%8s] iter %3d  eval       F1=%.4f P=%.4f R=%.4f in %s\n",
				elapsed, ev.Iteration, ev.Point.F1, ev.Point.Precision, ev.Point.Recall,
				ev.Elapsed.Round(time.Microsecond))
		case ev.Phase == "select" && ev.Batch > 0:
			fmt.Fprintf(l.w, "[%8s] iter %3d  select     batch=%d committee=%s score=%s\n",
				elapsed, ev.Iteration, ev.Batch, ev.Point.CommitteeCreateTime.Round(time.Microsecond),
				ev.Point.ScoreTime.Round(time.Microsecond))
		}
	case core.OracleBatchDone:
		fmt.Fprintf(l.w, "[%8s] iter %3d  batch      pairs=%d labels=%d abstain=%d fail=%d retired=%d cost=$%.4f spent=$%.4f in %s\n",
			elapsed, ev.Iteration, ev.Pairs, ev.Labels, ev.Abstains, ev.Failures,
			ev.Retired, ev.Cost, ev.Spent, ev.Elapsed.Round(time.Microsecond))
	case core.OracleFault:
		fmt.Fprintf(l.w, "[%8s] iter %3d  fault      pair (%d,%d) requeued: %v\n",
			elapsed, ev.Iteration, ev.Pair.L, ev.Pair.R, ev.Err)
	case core.CandidateAccepted:
		fmt.Fprintf(l.w, "[%8s] iter %3d  ensemble   accepted classifier #%d\n",
			elapsed, ev.Iteration, ev.Accepted)
	case core.RunEnd:
		fmt.Fprintf(l.w, "[%8s] run end: %s after %d iterations, %d labels\n",
			elapsed, ev.Reason, ev.Iterations, ev.LabelsUsed)
	default:
		// Events from outside core (embedding core.ExternalEvent) supply
		// their own one-line rendering; anything else falls back to %T.
		if el, ok := e.(interface{ EventLine() string }); ok {
			fmt.Fprintf(l.w, "[%8s] %s\n", elapsed, el.EventLine())
			break
		}
		fmt.Fprintf(l.w, "[%8s] %T%+v\n", elapsed, e, e)
	}
}
