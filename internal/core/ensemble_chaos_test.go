package core

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/alem/alem/internal/linear"
	"github.com/alem/alem/internal/oracle"
	"github.com/alem/alem/internal/resilience"
)

// memorySink is a LabelSink that keeps every record it is sent.
type memorySink struct{ recs []resilience.LabelRecord }

func (m *memorySink) AppendRecord(rec resilience.LabelRecord) error {
	m.recs = append(m.recs, rec)
	return nil
}

// ensembleTrail is what an ensemble run did, for comparing a resumed run
// with the uninterrupted one: its batches and its acceptances, each with
// its iteration. It wraps the run's selector to see each batch, and
// stamps the batch with its iteration at the select phase's event.
type ensembleTrail struct {
	Selector
	last     []int
	batches  []trailBatch
	accepted []CandidateAccepted
}

// trailBatch is one batch sent on to labeling.
type trailBatch struct {
	Iteration int
	Batch     []int
}

func (tr *ensembleTrail) Select(sctx *SelectContext, k int) []int {
	tr.last = tr.Selector.Select(sctx, k)
	return tr.last
}

func (tr *ensembleTrail) Observe(e Event) {
	switch e := e.(type) {
	case PhaseDone:
		if e.Phase == "select" && e.Batch > 0 {
			tr.batches = append(tr.batches, trailBatch{e.Iteration, append([]int(nil), tr.last...)})
		}
	case CandidateAccepted:
		tr.accepted = append(tr.accepted, e)
	}
}

// since is the part of the trail from iteration it on.
func (tr *ensembleTrail) since(it int) ensembleTrail {
	var out ensembleTrail
	for _, b := range tr.batches {
		if b.Iteration >= it {
			out.batches = append(out.batches, b)
		}
	}
	for _, a := range tr.accepted {
		if a.Iteration >= it {
			out.accepted = append(out.accepted, a)
		}
	}
	return out
}

// TestChaosEnsembleResume snapshots an ensemble run at every step
// boundary, through a JSON round trip, and resumes each snapshot with
// the label WAL cut at that boundary and again four answers later (a
// kill mid-round), on a session built with the default Config, τ and
// minimum positives. Every resumed run must end on the uninterrupted
// run's curve, accepted count, stop reason, labeled set and draws; its
// batches and acceptances must be the tail of the uninterrupted run's;
// and it must pay for no label the WAL already holds.
func TestChaosEnsembleResume(t *testing.T) {
	pool := ambiguousPool(400, 77)
	cfg := EnsembleConfig{Config: Config{Seed: 77, MaxLabels: 200}, Tau: 0.6, Factory: svmFactory, Selector: Margin{}}
	for _, noise := range []float64{0, 0.2} {
		newOracle := func() (oracle.Oracle, *oracle.Noisy) {
			if noise == 0 {
				return poolOracle(pool), nil
			}
			n := noisyPoolOracle(pool, noise, 19)
			return n, n
		}
		name := "perfect"
		if noise > 0 {
			name = "noisy-0.2"
		}
		t.Run(name, func(t *testing.T) {
			refOracle, refNoisy := newOracle()
			refSink, refTrail := &memorySink{}, &ensembleTrail{Selector: cfg.Selector}
			refCfg := cfg
			refCfg.Selector = refTrail
			ref, err := NewEnsembleSession(pool, oracle.PerPair(refOracle), refCfg)
			if err != nil {
				t.Fatal(err)
			}
			ref.SetLabelSink(refSink)
			ref.AddObserver(refTrail)
			var snaps [][]byte
			for {
				var buf bytes.Buffer
				if err := ref.Snapshot().Encode(&buf); err != nil {
					t.Fatal(err)
				}
				snaps = append(snaps, buf.Bytes())
				done, err := ref.Step(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if done {
					break
				}
			}
			if len(ref.ens.members) < 2 {
				t.Fatalf("uninterrupted run accepted %d candidates, the pin needs at least 2", len(ref.ens.members))
			}
			total := len(refSink.recs)
			if total != ref.Result().LabelsUsed || total != refOracle.Queries() {
				t.Fatalf("%d journaled answers, %d labels used, %d queries", total, ref.Result().LabelsUsed, refOracle.Queries())
			}

			for b, snap := range snaps {
				sn, err := ReadSnapshot(bytes.NewReader(snap))
				if err != nil {
					t.Fatal(err)
				}
				at := len(sn.Labeled)
				for _, cut := range []int{at, min(at+4, total)} {
					o, noisy := newOracle()
					sink, trail := &memorySink{}, &ensembleTrail{Selector: Margin{}}
					s, err := NewEnsembleSession(pool, oracle.PerPair(o), EnsembleConfig{Factory: svmFactory, Selector: trail})
					if err != nil {
						t.Fatal(err)
					}
					if err := s.Resume(sn, refSink.recs[:cut]); err != nil {
						t.Fatalf("boundary %d, WAL cut at %d: %v", b, cut, err)
					}
					s.SetLabelSink(sink)
					s.AddObserver(trail)
					res, err := s.Run(context.Background())
					if err != nil {
						t.Fatalf("boundary %d, WAL cut at %d: %v", b, cut, err)
					}
					curvesEqual(t, ref.Result().Curve, res.Curve)
					drawsEqual(t, ref, s)
					if len(s.ens.members) != len(ref.ens.members) || s.Reason() != ref.Reason() {
						t.Errorf("boundary %d, cut %d: %d accepted, %v; uninterrupted %d, %v",
							b, cut, len(s.ens.members), s.Reason(), len(ref.ens.members), ref.Reason())
					}
					if got, want := trail.since(sn.Iteration), refTrail.since(sn.Iteration); !reflect.DeepEqual(got, want) {
						t.Errorf("boundary %d, cut %d: resumed batches and acceptances are not the uninterrupted run's tail:\ngot  %+v\nwant %+v",
							b, cut, got, want)
					}
					if !slices.Equal(sink.recs, refSink.recs[at:]) {
						t.Errorf("boundary %d, cut %d: resumed answers differ from the uninterrupted run's", b, cut)
					}
					if got, want := o.Queries(), total-cut; got != want {
						t.Errorf("boundary %d, cut %d: resumed run paid %d queries, want %d", b, cut, got, want)
					}
					if noisy != nil && noisy.Draws() != refNoisy.Draws() {
						t.Errorf("boundary %d, cut %d: noise stream at draw %d, uninterrupted at %d",
							b, cut, noisy.Draws(), refNoisy.Draws())
					}
				}
			}
		})
	}
}

// TestRestoreRejectsTheOtherSessionKind pins that Resume refuses a
// session that has stepped, a plain session's snapshot on an ensemble
// session and an ensemble's on a plain one, each as a wiring mistake
// naming the constructor to use, and that an ensemble takes no warm
// start.
func TestRestoreRejectsTheOtherSessionKind(t *testing.T) {
	pool := syntheticPool(300, 78)
	bo := oracle.PerPair(poolOracle(pool))
	newPlain := func(cfg Config) *Session {
		s, err := NewBatchSession(pool, linear.NewSVM(78), Margin{}, bo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	newEns := func(cfg Config) *Session {
		s, err := NewEnsembleSession(pool, bo, EnsembleConfig{Config: cfg, Factory: svmFactory, Selector: Margin{}})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cfg := Config{Seed: 78, MaxLabels: 60}
	plain, ens := newPlain(cfg), newEns(cfg)
	for _, s := range []*Session{plain, ens} {
		if _, err := s.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	// Resuming on a stepped session or one of the other kind is a wiring
	// mistake, not an invalid snapshot.
	for _, tc := range []struct {
		name string
		s    *Session
		sn   *Snapshot
		want string
	}{
		{"a stepped session", plain, plain.Snapshot(), "not stepped"},
		{"an ensemble session resuming a plain snapshot", newEns(Config{}), plain.Snapshot(), "NewBatchSession"},
		{"a plain session resuming an ensemble snapshot", newPlain(Config{}), ens.Snapshot(), "NewEnsembleSession"},
	} {
		if err := tc.s.Resume(tc.sn, nil); err == nil || !strings.Contains(err.Error(), tc.want) || errors.Is(err, ErrInvalidSnapshot) {
			t.Errorf("%s: err = %v, want a plain error naming %q", tc.name, err, tc.want)
		}
	}
	sn := ens.Snapshot()
	sn.Ensemble.Members = append(sn.Ensemble.Members, EnsembleMember{Iteration: 5, Seed: 1})
	if err := newEns(Config{}).Resume(sn, nil); !errors.Is(err, ErrInvalidSnapshot) {
		t.Errorf("ensemble resume of a member from outside the curve: err = %v, want ErrInvalidSnapshot", err)
	}
	if err := ens.SetWarmStart(linear.NewSVM(1)); err == nil {
		t.Error("SetWarmStart on an ensemble session returned no error")
	}
	if _, err := NewEnsembleSession(pool, bo, EnsembleConfig{Selector: Margin{}}); err == nil {
		t.Error("NewEnsembleSession without a Factory returned no error")
	}
}

// TestEnsembleAcceptanceDropsAbstainCounts pins that a pair an accepted
// member covers leaves the abstain tallies along with the pool, so a
// priced ensemble's snapshot counts abstentions of pending pairs only.
func TestEnsembleAcceptanceDropsAbstainCounts(t *testing.T) {
	pool := ambiguousPool(400, 77)
	llm := oracle.NewSimulatedLLM(poolDataset(pool), oracle.LLMSimConfig{
		AbstainRate: 0.3, NoiseRate: 0.02, Price: oracle.PriceTable{PerLabel: 0.002, PerAbstain: 0.001},
	}, 3)
	s, err := NewEnsembleSession(pool, llm, EnsembleConfig{
		Config: Config{Seed: 77, MaxLabels: 200, MaxDollars: 0.5}, Tau: 0.6, Factory: svmFactory, Selector: Margin{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(s.ens.members) == 0 || s.Ledger().Abstains == 0 {
		t.Fatalf("%d accepted, %d abstentions; the pin needs both", len(s.ens.members), s.Ledger().Abstains)
	}
	for i := range s.Snapshot().AbstainCounts {
		if !slices.Contains(s.unlabeled, i) {
			t.Errorf("pair %d keeps an abstain count but is no longer in the pool", i)
		}
	}
}
