package main

import (
	"context"
	"net"
	"runtime"
	"testing"
	"time"
)

// TestServeMixedLeavesNothingRunning runs the serving workload at a
// reduced size, untraced and traced, and checks that every output check
// passed, that each listener the run opened now refuses connections and
// that the goroutine count is back to its baseline.
func TestServeMixedLeavesNothingRunning(t *testing.T) {
	for _, traced := range []bool{false, true} {
		baseline := runtime.NumGoroutine()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		out, err := runServeMixed(ctx, options{
			workload: "serve-mixed", seed: 5, seconds: 1, trace: traced, root: t.TempDir(),
		})
		cancel()
		if err != nil {
			t.Fatalf("traced=%v: %v", traced, err)
		}
		if out.failed != 0 || out.attempted == 0 {
			t.Fatalf("traced=%v: %d of %d operations failed: %v", traced, out.failed, out.attempted, out.problems)
		}
		if len(out.listeners) == 0 {
			t.Fatalf("traced=%v: run reported no listener", traced)
		}
		for _, addr := range out.listeners {
			if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
				c.Close()
				t.Errorf("traced=%v: listener %s still accepts connections", traced, addr)
			}
		}
		// Connection goroutines of the client transport exit
		// asynchronously after their sockets close; give them a moment.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > baseline {
			buf := make([]byte, 1<<16)
			t.Fatalf("traced=%v: %d goroutines after the run, baseline %d:\n%s",
				traced, n, baseline, buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestTracedSetupMatchesPoolConstructors checks, at a reduced size, that
// the pools the traced run assembles from layer calls equal the pool
// constructors' and that a traced round learns exactly what an untraced
// one does.
func TestTracedSetupMatchesPoolConstructors(t *testing.T) {
	spec := alSpec{
		datasets: []string{"beer", "amazon-bestbuy"}, scale: 1,
		sessions: []sessionSpec{svmMargin, rulesLFP}, maxLabels: 60,
	}
	ctx := context.Background()
	ref, err := spec.setup(9)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	var st pipelineCounts
	pools, err := spec.tracedSetup(ctx, tr, 9, &st)
	if err != nil {
		t.Fatal(err)
	}
	if err := samePools(ref, pools); err != nil {
		t.Fatalf("traced set-up differs from the constructors: %v", err)
	}
	if st.pairs == 0 || st.featurized != st.pairs {
		t.Fatalf("blocked %d pairs, featurized %d", st.pairs, st.featurized)
	}
	o := &outcome{metrics: metricSet{}}
	untraced := spec.runRound(ctx, nil, 9, ref, o)
	traced := spec.runRound(ctx, tr, 9, pools, o)
	sameDigests("traced round", untraced, traced, o)
	if o.failed != 0 {
		t.Fatalf("%d failed checks: %v", o.failed, o.problems)
	}
	p := tr.profile()
	if p.count["step"] == 0 || p.count["linear.train"] == 0 || p.count["rules.train"] == 0 {
		t.Fatalf("traced round recorded no steps or train phases: %v", p.count)
	}
	if frac := ratio(p.unattributed().Seconds(), p.wall.Seconds()); frac > 0.10 {
		t.Fatalf("unattributed share %.3f of the traced wall", frac)
	}
}

// TestCoveredMergesOverlaps pins self-time accounting: overlapping and
// out-of-parent child intervals are counted once, clipped to the parent.
func TestCoveredMergesOverlaps(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 60, End: 70}, {Start: 90, End: 150}}
	if got := covered(parent, kids); got != 30+10+10 {
		t.Fatalf("covered = %d, want 50", got)
	}
}
