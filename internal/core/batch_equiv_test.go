package core

// Label-path pins. testdata/golden_labelpath.json was recorded from the
// per-pair labeling engine the Session used to carry beside its batch
// path: after every step of eight scenarios it holds the snapshot bytes
// (timings zeroed), the RNG draw counters, the WAL bytes, the labeler's
// query, noise-draw and attempt counts, the OracleFault count, the stop
// reason and the run error. The file is never regenerated: a diff means
// the batch path no longer reproduces the per-pair one. Run with `make
// equiv`.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/alem/alem/internal/linear"
	"github.com/alem/alem/internal/oracle"
	"github.com/alem/alem/internal/resilience"
)

// encodeTimeless serializes a snapshot with its wall-clock latency
// fields zeroed: timings are measurements, not protocol state, and they
// are the only snapshot bytes a bit-identical pair of runs may differ in.
func encodeTimeless(t *testing.T, sn *Snapshot, buf *bytes.Buffer) {
	t.Helper()
	for i := range sn.Curve {
		sn.Curve[i].TrainTime = 0
		sn.Curve[i].CommitteeCreateTime = 0
		sn.Curve[i].ScoreTime = 0
	}
	if err := sn.Encode(buf); err != nil {
		t.Fatal(err)
	}
}

// labelPathStep is what the golden records after one Step.
type labelPathStep struct {
	Done        bool   `json:"done"`
	Reason      string `json:"reason"`
	Err         string `json:"err,omitempty"`
	Labeled     int    `json:"labeled"`
	Unlabeled   int    `json:"unlabeled"`
	Snapshot    string `json:"snapshot_sha256"`
	Draws63     uint64 `json:"draws63"`
	Draws64     uint64 `json:"draws64"`
	WALRecords  int    `json:"wal_records"`
	WAL         string `json:"wal_sha256"`
	Queries     int    `json:"queries"`
	OracleDraws uint64 `json:"oracle_draws,omitempty"`
	Attempts    int    `json:"attempts,omitempty"`
	Faults      int    `json:"faults"`
}

// labelPathRig is one scenario's session plus the labeler pieces whose
// counters the golden records.
type labelPathRig struct {
	s       *Session
	labeler interface{ Queries() int }
	noisy   *oracle.Noisy            // nil unless the labeler is noisy
	faulty  *resilience.FaultyOracle // nil unless faults are injected
}

// perfectRig is the free perfect oracle at a worker count.
func perfectRig(t *testing.T, workers int) labelPathRig {
	pool := syntheticPool(500, 21)
	o := poolOracle(pool)
	s, err := NewSession(pool, linear.NewSVM(21), Margin{}, o,
		Config{Seed: 21, MaxLabels: 100, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return labelPathRig{s: s, labeler: o}
}

// faultRig is a seeded FaultyOracle over the perfect oracle, behind a
// Retrier when attempts > 0.
func faultRig(t *testing.T, size int, seed int64, maxLabels int, rate float64, faultSeed int64, attempts int) labelPathRig {
	pool := syntheticPool(size, seed)
	faulty := resilience.NewFaultyOracle(oracle.PerPair(poolOracle(pool)), rate, faultSeed)
	var fo oracle.BatchOracle = faulty
	if attempts > 0 {
		fo = resilience.NewRetrier(faulty, resilience.RetryPolicy{
			MaxAttempts: attempts, BaseDelay: time.Nanosecond, Sleep: func(time.Duration) {},
		}, faultSeed)
	}
	s, err := NewBatchSession(pool, linear.NewSVM(seed), Margin{}, fo,
		Config{Seed: seed, MaxLabels: maxLabels})
	if err != nil {
		t.Fatal(err)
	}
	return labelPathRig{s: s, labeler: fo, faulty: faulty}
}

// labelPathScenarios are the golden's eight scenarios, by name.
var labelPathScenarios = map[string]func(t *testing.T) labelPathRig{
	"perfect/workers=0": func(t *testing.T) labelPathRig { return perfectRig(t, 0) },
	"perfect/workers=1": func(t *testing.T) labelPathRig { return perfectRig(t, 1) },
	"perfect/workers=2": func(t *testing.T) labelPathRig { return perfectRig(t, 2) },
	"perfect/workers=8": func(t *testing.T) labelPathRig { return perfectRig(t, 8) },
	"noisy-0.2": func(t *testing.T) labelPathRig {
		pool := syntheticPool(500, 22)
		noisy := noisyPoolOracle(pool, 0.2, 13)
		s, err := NewSession(pool, linear.NewSVM(22), Margin{}, noisy, Config{Seed: 22, MaxLabels: 100})
		if err != nil {
			t.Fatal(err)
		}
		return labelPathRig{s: s, labeler: noisy, noisy: noisy}
	},
	"faulty-0.2": func(t *testing.T) labelPathRig { return faultRig(t, 400, 33, 80, 0.2, 9, 0) },
	"retrier-faulty-0.3": func(t *testing.T) labelPathRig {
		return faultRig(t, 600, 31, 120, 0.3, 77, 8)
	},
	"dead": func(t *testing.T) labelPathRig { return faultRig(t, 200, 32, 50, 1.0, 5, 2) },
}

// runLabelPath drives one scenario to its end with a WAL attached,
// recording every step.
func runLabelPath(t *testing.T, rig labelPathRig) []labelPathStep {
	t.Helper()
	walPath := filepath.Join(t.TempDir(), "labels.wal")
	wal, _, err := resilience.OpenLabelWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	rig.s.SetLabelSink(wal)
	faults := 0
	rig.s.AddObserver(ObserverFunc(func(e Event) {
		if _, ok := e.(OracleFault); ok {
			faults++
		}
	}))

	var steps []labelPathStep
	for len(steps) < 1000 {
		done, stepErr := rig.s.Step(context.Background())
		var snap bytes.Buffer
		encodeTimeless(t, rig.s.Snapshot(), &snap)
		walBytes, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		st := labelPathStep{
			Done:       done,
			Reason:     rig.s.Reason().String(),
			Labeled:    len(rig.s.labeled),
			Unlabeled:  len(rig.s.unlabeled),
			Snapshot:   digest(snap.Bytes()),
			Draws63:    rig.s.src.n63,
			Draws64:    rig.s.src.n64,
			WALRecords: bytes.Count(walBytes, []byte{'\n'}),
			WAL:        digest(walBytes),
			Queries:    rig.labeler.Queries(),
			Faults:     faults,
		}
		if stepErr != nil {
			st.Err = stepErr.Error()
		}
		if rig.noisy != nil {
			st.OracleDraws = rig.noisy.Draws()
		}
		if rig.faulty != nil {
			st.Attempts = rig.faulty.Calls()
		}
		steps = append(steps, st)
		if done || stepErr != nil {
			return steps
		}
	}
	t.Fatal("scenario did not finish within 1000 steps")
	return nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkLabelPath runs one scenario against its golden steps.
func checkLabelPath(t *testing.T, name string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "golden_labelpath.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string][]labelPathStep
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	want, ok := golden[name]
	if !ok {
		t.Fatalf("golden has no scenario %q", name)
	}
	got := runLabelPath(t, labelPathScenarios[name](t))
	if len(got) != len(want) {
		t.Errorf("%d steps, golden has %d", len(got), len(want))
	}
	for i := 0; i < min(len(got), len(want)); i++ {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("step %d diverges from the per-pair path:\ngot  %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestBatchOracleEquivalenceBitIdentical pins the free perfect oracle at
// worker counts 0, 1, 2 and 8 against the per-pair path's golden.
func TestBatchOracleEquivalenceBitIdentical(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			checkLabelPath(t, fmt.Sprintf("perfect/workers=%d", workers))
		})
	}
}

// TestBatchOracleEquivalenceNoisy pins a Noisy oracle: every noise draw
// lands on the pair the per-pair path drew it for.
func TestBatchOracleEquivalenceNoisy(t *testing.T) {
	checkLabelPath(t, "noisy-0.2")
}

// TestBatchOracleEquivalenceFaults pins fallible labelers: terminal
// faults requeued at 20%, a Retrier absorbing 30% transient faults, and
// a dead labeler that stalls the seed round.
func TestBatchOracleEquivalenceFaults(t *testing.T) {
	for _, name := range []string{"faulty-0.2", "retrier-faulty-0.3", "dead"} {
		t.Run(name, func(t *testing.T) { checkLabelPath(t, name) })
	}
}
