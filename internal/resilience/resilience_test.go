package resilience

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/alem/alem/internal/dataset"
	"github.com/alem/alem/internal/oracle"
)

// stubOracle answers every pair it is given from a fixed map, one
// query per answer.
type stubOracle struct {
	labels  map[dataset.PairKey]bool
	queries int
}

func (s *stubOracle) LabelBatch(ctx context.Context, pairs []dataset.PairKey) ([]oracle.Answer, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]oracle.Answer, len(pairs))
	for i, p := range pairs {
		if s.labels[p] {
			out[i].Verdict = oracle.VerdictMatch
		}
	}
	s.queries += len(pairs)
	return out, nil
}

func (s *stubOracle) Queries() int { return s.queries }

// flakyOracle fails the first failures calls with a per-pair error, then
// answers match.
type flakyOracle struct {
	failures int
	calls    int
}

func (f *flakyOracle) LabelBatch(ctx context.Context, pairs []dataset.PairKey) ([]oracle.Answer, error) {
	f.calls++
	if f.calls <= f.failures {
		return []oracle.Answer{{Err: fmt.Errorf("boom %d", f.calls)}}, nil
	}
	return []oracle.Answer{{Verdict: oracle.VerdictMatch}}, nil
}

func (f *flakyOracle) Queries() int { return f.calls }

// funcOracle answers each call with fn, counting calls.
type funcOracle struct {
	fn    func(ctx context.Context) ([]oracle.Answer, error)
	calls int
}

func (f *funcOracle) LabelBatch(ctx context.Context, pairs []dataset.PairKey) ([]oracle.Answer, error) {
	f.calls++
	return f.fn(ctx)
}

func (f *funcOracle) Queries() int { return f.calls }

func noSleep(time.Duration) {}

// labelOne asks bo about p alone.
func labelOne(ctx context.Context, bo oracle.BatchOracle, p dataset.PairKey) ([]oracle.Answer, error) {
	return bo.LabelBatch(ctx, []dataset.PairKey{p})
}

func TestRetrierRecoversFromTransientFailures(t *testing.T) {
	inner := &flakyOracle{failures: 3}
	r := NewRetrier(inner, RetryPolicy{MaxAttempts: 5, BaseDelay: time.Nanosecond, Sleep: noSleep}, 1)
	answers, err := labelOne(context.Background(), r, dataset.PairKey{L: 1, R: 2})
	if err != nil || len(answers) != 1 || answers[0].Err != nil || answers[0].Verdict != oracle.VerdictMatch {
		t.Fatalf("LabelBatch = (%+v, %v), want one match answer", answers, err)
	}
	if r.Retries() != 3 {
		t.Errorf("Retries = %d, want 3", r.Retries())
	}
	if r.Exhausted() != 0 {
		t.Errorf("Exhausted = %d, want 0", r.Exhausted())
	}
}

func TestRetrierExhaustsBudget(t *testing.T) {
	inner := &flakyOracle{failures: 100}
	r := NewRetrier(inner, RetryPolicy{MaxAttempts: 4, BaseDelay: time.Nanosecond, Sleep: noSleep}, 1)
	answers, err := labelOne(context.Background(), r, dataset.PairKey{L: 7, R: 9})
	if err != nil || len(answers) != 1 {
		t.Fatalf("LabelBatch = (%+v, %v), want one errored answer", answers, err)
	}
	if !errors.Is(answers[0].Err, ErrOracleExhausted) {
		t.Fatalf("answer err = %v, want ErrOracleExhausted", answers[0].Err)
	}
	if inner.calls != 4 {
		t.Errorf("inner saw %d attempts, want 4", inner.calls)
	}
	if r.Exhausted() != 1 {
		t.Errorf("Exhausted = %d, want 1", r.Exhausted())
	}
	// The final attempt's error is preserved.
	if got := answers[0].Err.Error(); !strings.Contains(got, "boom 4") {
		t.Errorf("error %q lost its cause", got)
	}
}

func TestRetrierHonorsCancellation(t *testing.T) {
	inner := &flakyOracle{failures: 100}
	ctx, cancel := context.WithCancel(context.Background())
	r := NewRetrier(inner, RetryPolicy{MaxAttempts: 10, BaseDelay: time.Nanosecond,
		Sleep: func(time.Duration) { cancel() }}, 1)
	answers, err := labelOne(ctx, r, dataset.PairKey{})
	if !errors.Is(err, context.Canceled) || len(answers) != 0 {
		t.Fatalf("LabelBatch = (%+v, %v), want context.Canceled and no answer", answers, err)
	}
	if inner.calls != 1 {
		t.Errorf("inner saw %d attempts after cancel, want 1", inner.calls)
	}
}

// TestRetrierBackoffSchedule pins the backoff constants through the
// Sleep hook: the delay starts at BaseDelay, doubles up to the 2 s cap,
// and each sleep adds under 20% jitter.
func TestRetrierBackoffSchedule(t *testing.T) {
	var slept []time.Duration
	r := NewRetrier(&flakyOracle{failures: 100}, RetryPolicy{MaxAttempts: 5, BaseDelay: 600 * time.Millisecond,
		Sleep: func(d time.Duration) { slept = append(slept, d) }}, 1)
	labelOne(context.Background(), r, dataset.PairKey{})
	want := []time.Duration{600 * time.Millisecond, 1200 * time.Millisecond, 2 * time.Second, 2 * time.Second}
	if len(slept) != len(want) {
		t.Fatalf("slept %v, want %d backoffs", slept, len(want))
	}
	jittered := 0
	for i, d := range slept {
		if d < want[i] || float64(d) >= 1.2*float64(want[i]) {
			t.Errorf("backoff %d slept %v, want [%v, %v)", i+1, d, want[i], time.Duration(1.2*float64(want[i])))
		}
		if d > want[i] {
			jittered++
		}
	}
	if jittered == 0 {
		t.Errorf("no backoff carried jitter: %v", slept)
	}
}

// TestRetrierAnswersOnePairPerCall pins the Retrier's side of the
// BatchOracle contract: each call asks the inner labeler about pairs[0]
// alone and answers it alone; an answer the labeler gave — an
// abstention, or one that arrived as ctx fired — passes through
// unretried; a call that returned nothing is retried like a failed
// answer; a cancelled context aborts before the query.
func TestRetrierAnswersOnePairPerCall(t *testing.T) {
	p, q := dataset.PairKey{L: 1, R: 2}, dataset.PairKey{L: 3, R: 4}
	ctx := context.Background()
	policy := RetryPolicy{MaxAttempts: 3, BaseDelay: time.Nanosecond, Sleep: noSleep}

	stub := &stubOracle{labels: map[dataset.PairKey]bool{p: true}}
	r := NewRetrier(stub, policy, 1)
	for _, tc := range []struct {
		pairs []dataset.PairKey
		want  oracle.Verdict
	}{
		{[]dataset.PairKey{p, q}, oracle.VerdictMatch},
		{[]dataset.PairKey{q, p}, oracle.VerdictNonMatch},
	} {
		answers, err := r.LabelBatch(ctx, tc.pairs)
		if err != nil || len(answers) != 1 || answers[0].Verdict != tc.want || answers[0].Err != nil {
			t.Fatalf("LabelBatch(%v) = %+v, %v; want one %v answer", tc.pairs, answers, err, tc.want)
		}
	}
	if answers, err := r.LabelBatch(ctx, nil); len(answers) != 0 || err != nil {
		t.Errorf("empty batch answered %+v, %v", answers, err)
	}
	if stub.Queries() != 2 || r.Queries() != 2 {
		t.Errorf("queries = %d (retrier %d), want one per call", stub.Queries(), r.Queries())
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if answers, err := r.LabelBatch(cancelled, []dataset.PairKey{p}); len(answers) != 0 || !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled call gave %+v, %v", answers, err)
	}
	if stub.Queries() != 2 {
		t.Errorf("a cancelled call reached the labeler")
	}

	abstain := &funcOracle{fn: func(context.Context) ([]oracle.Answer, error) {
		return []oracle.Answer{{Verdict: oracle.VerdictAbstain, Cost: 0.5}}, nil
	}}
	r = NewRetrier(abstain, policy, 1)
	answers, err := r.LabelBatch(ctx, []dataset.PairKey{p, q})
	if err != nil || len(answers) != 1 || answers[0].Verdict != oracle.VerdictAbstain || answers[0].Cost != 0.5 {
		t.Errorf("abstention came back as %+v, %v", answers, err)
	}
	if abstain.calls != 1 || r.Retries() != 0 {
		t.Errorf("an abstention was retried: %d calls, %d retries", abstain.calls, r.Retries())
	}

	late, cancelLate := context.WithCancel(ctx)
	defer cancelLate()
	paid := &funcOracle{fn: func(context.Context) ([]oracle.Answer, error) {
		cancelLate()
		return []oracle.Answer{{Verdict: oracle.VerdictMatch}}, nil
	}}
	answers, err = NewRetrier(paid, policy, 1).LabelBatch(late, []dataset.PairKey{p})
	if err != nil || len(answers) != 1 || answers[0].Verdict != oracle.VerdictMatch {
		t.Errorf("an answer given as ctx fired came back as %+v, %v", answers, err)
	}

	silent := &funcOracle{fn: func(context.Context) ([]oracle.Answer, error) { return nil, nil }}
	answers, err = NewRetrier(silent, policy, 1).LabelBatch(ctx, []dataset.PairKey{p})
	if err != nil || len(answers) != 1 || !errors.Is(answers[0].Err, ErrOracleExhausted) || silent.calls != 3 {
		t.Errorf("a labeler answering nothing gave %+v, %v after %d calls; want exhaustion after 3",
			answers, err, silent.calls)
	}
}

// TestFaultyOracleAnswersOnePairPerCall pins the injector's side of the
// BatchOracle contract: each call asks the inner labeler about pairs[0]
// alone, an injected fault is that answer's Err and never reaches the
// inner labeler, and a cancelled context aborts before the attempt is
// counted.
func TestFaultyOracleAnswersOnePairPerCall(t *testing.T) {
	p, q := dataset.PairKey{L: 1, R: 2}, dataset.PairKey{L: 3, R: 4}
	ctx := context.Background()
	stub := &stubOracle{labels: map[dataset.PairKey]bool{p: true}}
	f := NewFaultyOracle(stub, 0, 1)
	for _, tc := range []struct {
		pairs []dataset.PairKey
		want  oracle.Verdict
	}{
		{[]dataset.PairKey{p, q}, oracle.VerdictMatch},
		{[]dataset.PairKey{q, p}, oracle.VerdictNonMatch},
	} {
		answers, err := f.LabelBatch(ctx, tc.pairs)
		if err != nil || len(answers) != 1 || answers[0].Verdict != tc.want || answers[0].Err != nil {
			t.Fatalf("LabelBatch(%v) = %+v, %v; want one %v answer", tc.pairs, answers, err, tc.want)
		}
	}
	if answers, err := f.LabelBatch(ctx, nil); len(answers) != 0 || err != nil {
		t.Errorf("empty batch answered %+v, %v", answers, err)
	}
	if stub.Queries() != 2 || f.Queries() != 2 || f.Calls() != 2 {
		t.Errorf("queries = %d (injector %d, calls %d), want one per call", stub.Queries(), f.Queries(), f.Calls())
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if answers, err := f.LabelBatch(cancelled, []dataset.PairKey{p}); len(answers) != 0 || !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled call gave %+v, %v", answers, err)
	}
	if stub.Queries() != 2 || f.Calls() != 2 {
		t.Errorf("a cancelled call counted an attempt or reached the labeler")
	}

	dead := NewFaultyOracle(stub, 1, 1)
	answers, err := dead.LabelBatch(ctx, []dataset.PairKey{p, q})
	if err != nil || len(answers) != 1 || !errors.Is(answers[0].Err, ErrInjected) {
		t.Errorf("a dead labeler answered %+v, %v; want one injected fault", answers, err)
	}
	if stub.Queries() != 2 || dead.Injected() != 1 {
		t.Errorf("an injected fault reached the labeler (%d queries, %d injected)", stub.Queries(), dead.Injected())
	}
}

// TestFaultInjectorDeterministic pins the replay contract: two injectors
// with the same seed make identical decisions for the same per-pair
// attempt sequence, regardless of interleaving with other pairs.
func TestFaultInjectorDeterministic(t *testing.T) {
	mkInner := func() *stubOracle {
		return &stubOracle{labels: map[dataset.PairKey]bool{}}
	}
	a := NewFaultyOracle(mkInner(), 0.3, 99)
	b := NewFaultyOracle(mkInner(), 0.3, 99)

	// Drive a with pairs 0..19 in order; drive b with the same pairs in
	// a different interleaving. Per-pair outcomes must match exactly.
	outcome := func(f *FaultyOracle, p dataset.PairKey) []bool {
		var outs []bool
		for i := 0; i < 4; i++ {
			answers, err := labelOne(context.Background(), f, p)
			outs = append(outs, err == nil && len(answers) == 1 && answers[0].Err == nil)
		}
		return outs
	}
	resA := map[int][]bool{}
	for i := 0; i < 20; i++ {
		resA[i] = outcome(a, dataset.PairKey{L: i, R: i + 1})
	}
	resB := map[int][]bool{}
	for i := 19; i >= 0; i-- {
		resB[i] = outcome(b, dataset.PairKey{L: i, R: i + 1})
	}
	faults := 0
	for i := 0; i < 20; i++ {
		for j := range resA[i] {
			if resA[i][j] != resB[i][j] {
				t.Fatalf("pair %d attempt %d: %v vs %v", i, j, resA[i][j], resB[i][j])
			}
			if !resA[i][j] {
				faults++
			}
		}
	}
	if faults == 0 {
		t.Error("30%% fault rate injected nothing across 80 attempts")
	}
	if a.Injected() != faults {
		t.Errorf("Injected = %d, want %d", a.Injected(), faults)
	}
}

func TestBreakerLifecycle(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(BreakerConfig{FailureThreshold: 3, Cooldown: 10 * time.Second,
		Now: func() time.Time { return now }})

	if ok, probe := b.Allow(); !ok || probe || b.State() != BreakerClosed {
		t.Fatal("new breaker is not closed")
	}
	boom := errors.New("boom")
	b.Record(boom)
	b.Record(boom)
	if b.State() != BreakerClosed {
		t.Fatal("breaker opened below threshold")
	}
	b.Record(boom)
	if ok, _ := b.Allow(); b.State() != BreakerOpen || ok {
		t.Fatalf("state=%v after 3 failures, want open and shedding", b.State())
	}
	if ra := b.RetryAfter(); ra != 10*time.Second {
		t.Errorf("RetryAfter = %v, want 10s", ra)
	}
	if b.Opens() != 1 {
		t.Errorf("Opens = %d, want 1", b.Opens())
	}

	// Cooldown expires: exactly one probe is admitted.
	now = now.Add(11 * time.Second)
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state=%v after cooldown, want half-open", b.State())
	}
	if ok, probe := b.Allow(); !ok || !probe {
		t.Fatal("half-open breaker refused the probe, or did not flag it")
	}
	if ok, _ := b.Allow(); ok {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}

	// Failed probe re-opens; successful probe closes.
	b.Record(boom)
	if b.State() != BreakerOpen {
		t.Fatal("failed probe did not re-open the circuit")
	}
	now = now.Add(11 * time.Second)
	if ok, _ := b.Allow(); !ok {
		t.Fatal("second probe refused")
	}
	b.Record(nil)
	if ok, probe := b.Allow(); b.State() != BreakerClosed || !ok || probe {
		t.Fatal("successful probe did not close the circuit")
	}
	if b.Opens() != 2 {
		t.Errorf("Opens = %d, want 2", b.Opens())
	}
}

// TestBreakerReleaseFreesWedgedProbe pins the probe-leak fix: a probe
// holder whose request died on something unrelated to model health
// (client error, disconnect) releases the slot instead of recording, and
// the next request is admitted as a fresh probe — the half-open state
// can no longer shed traffic forever.
func TestBreakerReleaseFreesWedgedProbe(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, Cooldown: time.Second,
		Now: func() time.Time { return now }})
	b.Record(errors.New("boom"))
	now = now.Add(2 * time.Second)
	if ok, probe := b.Allow(); !ok || !probe {
		t.Fatal("probe not admitted after cooldown")
	}
	if ok, _ := b.Allow(); ok {
		t.Fatal("second probe admitted while the first is unsettled")
	}
	b.Release()
	if ok, probe := b.Allow(); !ok || !probe {
		t.Fatal("released probe slot was not re-admitted")
	}
	b.Record(nil)
	if b.State() != BreakerClosed {
		t.Fatal("fresh probe success did not close the circuit")
	}
}

// TestBreakerIgnoresLateSuccessWhileOpen: a success from a request
// admitted before the trip must not close an open circuit early — the
// cooldown stands, mirroring how late failures are ignored.
func TestBreakerIgnoresLateSuccessWhileOpen(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, Cooldown: 10 * time.Second,
		Now: func() time.Time { return now }})
	b.Record(errors.New("boom"))
	b.Record(nil)
	if b.State() != BreakerOpen {
		t.Fatalf("state=%v after late success, want the cooldown to stand", b.State())
	}
	if ok, _ := b.Allow(); ok {
		t.Fatal("open breaker admitted traffic after a late success")
	}
}

func TestLabelWALAppendReopenReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.wal")
	w, records, err := OpenLabelWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 0 {
		t.Fatalf("fresh WAL has %d records", len(records))
	}
	for i := 1; i <= 5; i++ {
		if err := w.AppendRecord(LabelRecord{Seq: i, Index: 100 + i, Label: i%2 == 0}); err != nil {
			t.Fatal(err)
		}
	}
	// Idempotent replay: re-appending seq 3 is a no-op.
	if err := w.AppendRecord(LabelRecord{Seq: 3, Index: 999, Label: true}); err != nil {
		t.Fatalf("idempotent re-append failed: %v", err)
	}
	// A gap is corruption, not replay.
	if err := w.AppendRecord(LabelRecord{Seq: 8, Index: 1, Label: true}); err == nil {
		t.Fatal("out-of-sequence append accepted")
	}
	w.Close()

	w2, records, err := OpenLabelWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(records) != 5 {
		t.Fatalf("reopened WAL has %d records, want 5", len(records))
	}
	for i, rec := range records {
		if rec.Seq != i+1 || rec.Index != 101+i || rec.Label != ((i+1)%2 == 0) {
			t.Fatalf("record %d = %+v", i, rec)
		}
	}
	if w2.LastSeq() != 5 {
		t.Errorf("LastSeq = %d, want 5", w2.LastSeq())
	}
	// Appending continues the sequence.
	if err := w2.AppendRecord(LabelRecord{Seq: 6, Index: 200, Label: true}); err != nil {
		t.Fatal(err)
	}
}

func TestLabelWALRecoversTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.wal")
	w, _, err := OpenLabelWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := w.AppendRecord(LabelRecord{Seq: i, Index: i, Label: true}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	// Simulate a crash mid-append: a torn, undecodable final line.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"seq":4,"index":9,"lab`)
	f.Close()

	w2, records, err := OpenLabelWAL(path)
	if err != nil {
		t.Fatalf("torn tail surfaced as error: %v", err)
	}
	defer w2.Close()
	if len(records) != 3 {
		t.Fatalf("recovered %d records, want the 3 intact ones", len(records))
	}
	// The torn bytes are gone: the next append reuses seq 4 cleanly and
	// a further reopen sees 4 intact records.
	if err := w2.AppendRecord(LabelRecord{Seq: 4, Index: 9, Label: false}); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	_, records, err = OpenLabelWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 4 || records[3].Seq != 4 || records[3].Index != 9 {
		t.Fatalf("after recovery+append got %+v", records)
	}
}

// TestLabelWALTornTailMissingNewline pins the subtler torn write: the
// crash lost only the trailing '\n', so the final line decodes cleanly
// but is unterminated. It must be discarded as torn — counting it once
// made validLen exceed the file size, so the "truncate" extended the
// file with a NUL and a later reopen silently dropped acknowledged
// records that had landed after it.
func TestLabelWALTornTailMissingNewline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.wal")
	w, _, err := OpenLabelWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := w.AppendRecord(LabelRecord{Seq: i, Index: i, Label: true}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	intact, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"seq":4,"index":9,"label":true}`)
	f.Close()

	w2, records, err := OpenLabelWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 3 {
		t.Fatalf("recovered %d records, want the 3 terminated ones", len(records))
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != intact.Size() {
		t.Fatalf("file size %d after recovery, want %d (truncated, not extended)", fi.Size(), intact.Size())
	}
	// Appends land where the torn bytes were and survive reopen intact.
	if err := w2.AppendRecord(LabelRecord{Seq: 4, Index: 9, Label: false}); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	_, records, err = OpenLabelWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 4 || records[3].Seq != 4 || records[3].Index != 9 || records[3].Label {
		t.Fatalf("after recovery+append got %+v", records)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("v1"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// A failed write leaves the previous content untouched and no temp
	// litter behind.
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		w.Write([]byte("gar"))
		return errors.New("write exploded")
	}); err == nil {
		t.Fatal("failed write not reported")
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v1" {
		t.Fatalf("content = %q after failed overwrite, want v1", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp litter left behind: %v", entries)
	}
}

// TestWriteFileAtomicOverwriteAndErrors completes the atomicity
// coverage: a successful overwrite fully replaces the old content, a
// missing parent directory fails cleanly before any write, and
// concurrent writers racing the same path each land a complete file —
// the final content is one writer's payload in full, never a splice.
func TestWriteFileAtomicOverwriteAndErrors(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	write := func(content string) error {
		return WriteFileAtomic(path, func(w io.Writer) error {
			_, err := w.Write([]byte(content))
			return err
		})
	}
	if err := write("v1"); err != nil {
		t.Fatal(err)
	}
	if err := write("version-two"); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "version-two" {
		t.Fatalf("content after overwrite = %q, want version-two", got)
	}

	missing := filepath.Join(dir, "no-such-dir", "state.json")
	if err := WriteFileAtomic(missing, func(w io.Writer) error { return nil }); err == nil {
		t.Fatal("write into a missing directory not reported")
	}

	const writers = 8
	var wg sync.WaitGroup
	payloads := make(map[string]bool, writers)
	for i := 0; i < writers; i++ {
		content := strings.Repeat(string(rune('a'+i)), 64)
		payloads[content] = true
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := write(content); err != nil {
				t.Errorf("concurrent write: %v", err)
			}
		}()
	}
	wg.Wait()
	got, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !payloads[string(got)] {
		t.Fatalf("final content %q is not any writer's full payload — torn write", got)
	}
}
