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

// stubOracle answers from a fixed map and counts queries.
type stubOracle struct {
	labels  map[dataset.PairKey]bool
	queries int
}

func (s *stubOracle) Label(ctx context.Context, p dataset.PairKey) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	s.queries++
	return s.labels[p], nil
}

func (s *stubOracle) Queries() int { return s.queries }

// flakyOracle fails the first failures calls, then succeeds.
type flakyOracle struct {
	failures int
	calls    int
}

func (f *flakyOracle) Label(ctx context.Context, p dataset.PairKey) (bool, error) {
	f.calls++
	if f.calls <= f.failures {
		return false, fmt.Errorf("boom %d", f.calls)
	}
	return true, nil
}

func (f *flakyOracle) Queries() int { return f.calls }

func noSleep(time.Duration) {}

func TestRetrierRecoversFromTransientFailures(t *testing.T) {
	inner := &flakyOracle{failures: 3}
	r := NewRetrier(inner, RetryPolicy{MaxAttempts: 5, BaseDelay: time.Nanosecond, Sleep: noSleep}, 1)
	lab, err := r.Label(context.Background(), dataset.PairKey{L: 1, R: 2})
	if err != nil || !lab {
		t.Fatalf("Label = (%v, %v), want (true, nil)", lab, err)
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
	_, err := r.Label(context.Background(), dataset.PairKey{L: 7, R: 9})
	if !errors.Is(err, ErrOracleExhausted) {
		t.Fatalf("err = %v, want ErrOracleExhausted", err)
	}
	if inner.calls != 4 {
		t.Errorf("inner saw %d attempts, want 4", inner.calls)
	}
	if r.Exhausted() != 1 {
		t.Errorf("Exhausted = %d, want 1", r.Exhausted())
	}
	// The final error's cause is preserved.
	if got := err.Error(); got == "" || !errors.Is(err, ErrOracleExhausted) {
		t.Errorf("error %q lost its cause", got)
	}
}

func TestRetrierHonorsCancellation(t *testing.T) {
	inner := &flakyOracle{failures: 100}
	ctx, cancel := context.WithCancel(context.Background())
	r := NewRetrier(inner, RetryPolicy{MaxAttempts: 10, BaseDelay: time.Nanosecond,
		Sleep: func(time.Duration) { cancel() }}, 1)
	_, err := r.Label(ctx, dataset.PairKey{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if inner.calls != 1 {
		t.Errorf("inner saw %d attempts after cancel, want 1", inner.calls)
	}
}

// TestFaultInjectorDeterministic pins the replay contract: two injectors
// with the same seed make identical decisions for the same per-pair
// attempt sequence, regardless of interleaving with other pairs.
func TestFaultInjectorDeterministic(t *testing.T) {
	mkInner := func() *stubOracle {
		return &stubOracle{labels: map[dataset.PairKey]bool{}}
	}
	cfg := FaultConfig{TransientRate: 0.3}
	a := NewFaultyOracle(mkInner(), cfg, 99)
	b := NewFaultyOracle(mkInner(), cfg, 99)

	// Drive a with pairs 0..19 in order; drive b with the same pairs in
	// a different interleaving. Per-pair outcomes must match exactly.
	outcome := func(f *FaultyOracle, p dataset.PairKey) []bool {
		var outs []bool
		for i := 0; i < 4; i++ {
			_, err := f.Label(context.Background(), p)
			outs = append(outs, err == nil)
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

func TestFaultInjectorOutageWindow(t *testing.T) {
	inner := &stubOracle{labels: map[dataset.PairKey]bool{}}
	f := NewFaultyOracle(inner, FaultConfig{OutageAfter: 3, OutageFor: 2}, 1)
	var errs []bool
	for i := 0; i < 7; i++ {
		_, err := f.Label(context.Background(), dataset.PairKey{L: i, R: i})
		errs = append(errs, err != nil)
	}
	want := []bool{false, false, false, true, true, false, false}
	for i := range want {
		if errs[i] != want[i] {
			t.Fatalf("call %d: failed=%v, want %v (outage window [4,5])", i+1, errs[i], want[i])
		}
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

func TestStatefulOfUnwrapsChains(t *testing.T) {
	// A plain stub exposes no state; wrapping it should not invent one.
	base := Wrap(pairCounter{})
	if _, ok := StatefulOf(base); ok {
		t.Fatal("stateless oracle reported stateful")
	}
	chained := NewRetrier(NewFaultyOracle(base, FaultConfig{}, 1),
		RetryPolicy{Sleep: noSleep}, 1)
	if _, ok := StatefulOf(chained); ok {
		t.Fatal("stateless chain reported stateful")
	}
}

// pairCounter is a minimal oracle.Oracle for wrap tests.
type pairCounter struct{}

func (pairCounter) Label(dataset.PairKey) bool { return true }
func (pairCounter) Queries() int               { return 0 }

// TestBatchOfAnswersOnePairPerCall pins the per-pair adapter's contract:
// each LabelBatch call asks the chain about its first pair only, a
// per-pair error becomes that answer's Err, and a cancelled context
// aborts before the query.
func TestBatchOfAnswersOnePairPerCall(t *testing.T) {
	p, q := dataset.PairKey{L: 1, R: 2}, dataset.PairKey{L: 3, R: 4}
	stub := &stubOracle{labels: map[dataset.PairKey]bool{p: true}}
	bo := BatchOf(stub)
	ctx := context.Background()
	for _, tc := range []struct {
		pairs []dataset.PairKey
		want  oracle.Verdict
	}{
		{[]dataset.PairKey{p, q}, oracle.VerdictMatch},
		{[]dataset.PairKey{q, p}, oracle.VerdictNonMatch},
	} {
		answers, err := bo.LabelBatch(ctx, tc.pairs)
		if err != nil || len(answers) != 1 || answers[0].Verdict != tc.want || answers[0].Err != nil {
			t.Fatalf("LabelBatch(%v) = %+v, %v; want one %v answer", tc.pairs, answers, err, tc.want)
		}
	}
	if answers, err := bo.LabelBatch(ctx, nil); len(answers) != 0 || err != nil {
		t.Errorf("empty batch answered %+v, %v", answers, err)
	}
	if stub.Queries() != 2 || bo.Queries() != 2 {
		t.Errorf("queries = %d (adapter %d), want one per call", stub.Queries(), bo.Queries())
	}

	answers, err := BatchOf(&flakyOracle{failures: 1}).LabelBatch(ctx, []dataset.PairKey{p, q})
	if err != nil || len(answers) != 1 || answers[0].Err == nil {
		t.Errorf("failing query gave %+v, %v; want one errored answer", answers, err)
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if answers, err := bo.LabelBatch(cancelled, []dataset.PairKey{p}); len(answers) != 0 || !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled call gave %+v, %v", answers, err)
	}
	if stub.Queries() != 2 {
		t.Errorf("a cancelled call reached the labeler")
	}
}
