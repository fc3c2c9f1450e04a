package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/alem/alem/internal/core"
	"github.com/alem/alem/internal/dataset"
	"github.com/alem/alem/internal/feature"
	"github.com/alem/alem/internal/match"
	"github.com/alem/alem/internal/model"
	"github.com/alem/alem/internal/serve"
	"github.com/alem/alem/internal/tree"
)

// The serving workload's shape. Rates are offered rates of the open
// loop.
const (
	serveDataset = "abt-buy"
	trainScale   = 0.5
	trainRows    = 1000 // labeled pairs the served forest is trained on
	scoreVectors = 16
	scoreBodies  = 512
	matchSide    = 50
	scoreRate    = 200.0
	matchRate    = 10.0
	// window is the length of one repeat of the fixed-rate schedule: 2.5 s
	// at 200 req/s leaves ten score slots beyond the p98 (scoreTail), and
	// a 15 s phase repeats every slot six times.
	window    = 2500 * time.Millisecond
	scoreTail = 0.98
	// saturateShare and settleShare are the capacity windows' and the
	// settling phase's total lengths as shares of the fixed-rate phase.
	// A capacity window follows every capacityEvery-th fixed-rate window.
	saturateShare  = 0.3
	capacityEvery  = 2
	settleShare    = 0.1
	warmupRequests = 20
	drainTimeout   = 5 * time.Second
)

// Wire shapes of the serving API.
type (
	wireRow struct {
		ID     string   `json:"id"`
		Values []string `json:"values"`
	}
	wireTable struct {
		Schema []string  `json:"schema"`
		Rows   []wireRow `json:"rows"`
	}
	matchBody struct {
		Left  wireTable `json:"left"`
		Right wireTable `json:"right"`
	}
	matchAnswer struct {
		Pairs []struct {
			LeftID     string  `json:"left_id"`
			RightID    string  `json:"right_id"`
			Confidence float64 `json:"confidence"`
		} `json:"pairs"`
		Candidates int `json:"candidates"`
	}
	scoreBody struct {
		Vectors [][]float64 `json:"vectors"`
	}
	scoreAnswer struct {
		Scores  []float64 `json:"scores"`
		Matches []bool    `json:"matches"`
	}
)

// tablePair is one /v1/match body: two tables built from records no
// other body of the run uses, and the true matches between them, by
// record ids and by row indices.
type tablePair struct {
	left, right *dataset.Table
	truth       map[[2]string]bool
	keys        []dataset.PairKey
}

// serveInputs are everything the serving workload sends, generated from
// the seed before any timing starts.
type serveInputs struct {
	trainData *dataset.Dataset
	loadTime  time.Duration      // dataset.Load of the training data
	vectors   [][]feature.Vector // per score body
	tables    []tablePair        // per match body
	bodies    [2][][]byte
}

func makeServeInputs(seed int64, matchBodies int) (*serveInputs, *core.Pool, error) {
	start := time.Now()
	d, err := dataset.Load(serveDataset, trainScale, derive(seed, "train", 0))
	if err != nil {
		return nil, nil, err
	}
	in := &serveInputs{trainData: d, loadTime: time.Since(start)}
	pool := core.NewPool(d)
	rng := rand.New(rand.NewSource(derive(seed, "score-bodies", 0)))
	for i := 0; i < scoreBodies; i++ {
		vs := make([]feature.Vector, scoreVectors)
		for j := range vs {
			vs[j] = pool.X[rng.Intn(pool.Len())]
		}
		b, err := json.Marshal(scoreBody{Vectors: toFloats(vs)})
		if err != nil {
			return nil, nil, err
		}
		in.vectors = append(in.vectors, vs)
		in.bodies[scoreKind] = append(in.bodies[scoreKind], b)
	}
	for g := 0; len(in.tables) < matchBodies; g++ {
		fresh, err := dataset.Load(serveDataset, 1, derive(seed, "match-records", g))
		if err != nil {
			return nil, nil, err
		}
		ms := fresh.Matches()
		sort.Slice(ms, func(i, j int) bool { return ms[i].L < ms[j].L || (ms[i].L == ms[j].L && ms[i].R < ms[j].R) })
		rng := rand.New(rand.NewSource(derive(seed, "match-shuffle", g)))
		rng.Shuffle(len(ms), func(i, j int) { ms[i], ms[j] = ms[j], ms[i] })
		usedL, usedR := map[int]bool{}, map[int]bool{}
		var chunk []dataset.PairKey
		for _, m := range ms {
			if usedL[m.L] || usedR[m.R] {
				continue
			}
			usedL[m.L], usedR[m.R] = true, true
			if chunk = append(chunk, m); len(chunk) < matchSide {
				continue
			}
			tp := newTablePair(fresh, chunk, fmt.Sprintf("g%d-%d-", g, len(in.tables)), rng)
			b, err := json.Marshal(matchBody{Left: toWire(tp.left), Right: toWire(tp.right)})
			if err != nil {
				return nil, nil, err
			}
			in.tables = append(in.tables, tp)
			in.bodies[matchKind] = append(in.bodies[matchKind], b)
			chunk = nil
			if len(in.tables) == matchBodies {
				break
			}
		}
	}
	return in, pool, nil
}

func newTablePair(d *dataset.Dataset, pairs []dataset.PairKey, prefix string, rng *rand.Rand) tablePair {
	tp := tablePair{
		left:  &dataset.Table{Name: "left", Schema: d.Left.Schema},
		right: &dataset.Table{Name: "right", Schema: d.Right.Schema},
		truth: map[[2]string]bool{},
	}
	// Left row i is pairs[i]'s left record; right row j is pairs[perm[j]]'s
	// right record, so left row perm[j] matches right row j.
	perm := rng.Perm(len(pairs))
	for i, p := range pairs {
		l := d.Left.Rows[p.L]
		r := d.Right.Rows[pairs[perm[i]].R]
		tp.left.Rows = append(tp.left.Rows, dataset.Record{ID: prefix + "L" + l.ID, Values: l.Values})
		tp.right.Rows = append(tp.right.Rows, dataset.Record{ID: prefix + "R" + r.ID, Values: r.Values})
	}
	for j, i := range perm {
		tp.keys = append(tp.keys, dataset.PairKey{L: i, R: j})
		tp.truth[[2]string{tp.left.Rows[i].ID, tp.right.Rows[j].ID}] = true
	}
	return tp
}

func toWire(t *dataset.Table) wireTable {
	w := wireTable{Schema: t.Schema, Rows: make([]wireRow, len(t.Rows))}
	for i, r := range t.Rows {
		w.Rows[i] = wireRow{ID: r.ID, Values: r.Values}
	}
	return w
}

func toFloats(vs []feature.Vector) [][]float64 {
	out := make([][]float64, len(vs))
	for i, v := range vs {
		out[i] = v
	}
	return out
}

// server is one in-process serve.Server and the goroutine running its
// ListenAndServe; stop cancels it and waits for the drain to finish.
type server struct {
	srv    *serve.Server
	cancel context.CancelFunc
	done   chan error
}

func startServer(art *model.Artifact) (*server, error) {
	srv := serve.New(art, serve.Config{Addr: "127.0.0.1:0", DrainTimeout: drainTimeout})
	ctx, cancel := context.WithCancel(context.Background())
	s := &server{srv: srv, cancel: cancel, done: make(chan error, 1)}
	go func() { s.done <- srv.ListenAndServe(ctx) }()
	select {
	case <-srv.Ready():
		return s, nil
	case err := <-s.done:
		cancel()
		return nil, fmt.Errorf("starting server: %w", err)
	}
}

// stop shuts the server down through its context and waits, at most the
// drain budget plus a margin, for ListenAndServe to return.
func (s *server) stop() error {
	s.cancel()
	select {
	case err := <-s.done:
		return err
	case <-time.After(drainTimeout + 5*time.Second):
		return fmt.Errorf("server did not stop within %s", drainTimeout+5*time.Second)
	}
}

// trained is the set-up's product: the artifact bytes, the artifact the
// server runs, and the phases' wall times.
type trained struct {
	saved           []byte
	art             *model.Artifact
	train, loadTime time.Duration
}

// trainArtifact trains the served forest on a seeded sample of
// trainRows labeled pool pairs — the labeled-set size of an active
// learning run — and round-trips it through model.Save and model.Load.
func trainArtifact(d *dataset.Dataset, pool *core.Pool, seed int64) (*trained, error) {
	idx := rand.New(rand.NewSource(derive(seed, "train-sample", 0))).Perm(pool.Len())[:min(trainRows, pool.Len())]
	X := make([]feature.Vector, len(idx))
	y := make([]bool, len(idx))
	for i, j := range idx {
		X[i], y[i] = pool.X[j], pool.Truth[j]
	}
	start := time.Now()
	f := tree.NewForest(20, derive(seed, "forest", 0))
	f.Train(X, y)
	t := &trained{train: time.Since(start)}
	var buf bytes.Buffer
	if err := model.Save(&buf, f, model.Meta{
		Schema: d.Left.Schema, BlockThreshold: d.BlockThreshold,
		Features: match.FloatFeatures, Dataset: d.Name, Labels: len(idx),
	}); err != nil {
		return nil, err
	}
	t.saved = buf.Bytes()
	start = time.Now()
	art, err := model.Load(bytes.NewReader(t.saved))
	if err != nil {
		return nil, err
	}
	t.loadTime = time.Since(start)
	t.art = art
	return t, nil
}

// serveRun is the state of one serving workload run.
type serveRun struct {
	opt     options
	in      *serveInputs
	srv     *server
	gen     *loadgen
	conns   int
	next    [2]int
	o       *outcome
	ref     *model.Artifact // independently loaded, for in-process checks
	matcher *match.Matcher
	tr      *tracer
}

func runServeMixed(ctx context.Context, opt options) (*outcome, error) {
	o := &outcome{metrics: metricSet{}}
	phaseDur := time.Duration(opt.seconds * float64(time.Second))
	satDur := time.Duration(saturateShare * float64(phaseDur))
	settleDur := time.Duration(settleShare * float64(phaseDur))
	// Match bodies for the warm-ups, the settling phase, up to two
	// fixed-rate phases and the capacity windows (with a rounding margin
	// per window), so no body is sent twice.
	need := 2*setupRepeats + int(matchRate*settleDur.Seconds()+1) +
		2*int(matchRate*opt.seconds+1) + int(matchRate*satDur.Seconds()) + 8
	in, pool, err := makeServeInputs(opt.seed, need)
	if err != nil {
		return nil, err
	}
	r := &serveRun{opt: opt, in: in, o: o, conns: runtime.NumCPU()}
	defer r.shutdown()

	var setups []float64
	var tr0 *trained
	repeats := setupRepeats
	if opt.trace {
		repeats = 1
	}
	for i := 0; i < repeats; i++ {
		if r.srv != nil {
			if err := r.shutdown(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		start := time.Now()
		if tr0, err = trainArtifact(in.trainData, pool, opt.seed); err != nil {
			return nil, err
		}
		if err := r.start(ctx, tr0.art); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	if r.ref, err = model.Load(bytes.NewReader(tr0.saved)); err != nil {
		return nil, err
	}
	r.matcher = r.ref.Matcher()

	if opt.trace {
		if err := r.traced(ctx, phaseDur, tr0); err != nil {
			return nil, err
		}
		return o, r.shutdown()
	}

	// Collect the set-ups' garbage and let the server settle under the
	// fixed-rate mix before anything is measured; the settling phase's
	// answers are checked but not timed.
	runtime.GC()
	if _, err := r.check(ctx, r.phase(ctx, settleDur)); err != nil {
		return nil, err
	}
	// The fixed-rate phase runs as windows that repeat one schedule, with
	// the capacity windows spread evenly among them, so both are sampled
	// across the run.
	win := min(window, phaseDur)
	n := max(1, int(phaseDur/win))
	nCap := max(1, n/capacityEvery)
	var wins [][]*request
	var answers confusion
	capacity := 0.0
	for k := 0; k < n; k++ {
		r.next[scoreKind] = 0 // every window sends the same score bodies
		w := r.phase(ctx, win)
		a, err := r.check(ctx, w)
		if err != nil {
			return nil, err
		}
		wins = append(wins, w)
		answers.add(a)
		if (k+1)*nCap/n == k*nCap/n {
			continue // nCap capacity windows, evenly spaced, the last at the end
		}
		rate, a, err := r.saturate(ctx, satDur/time.Duration(nCap))
		if err != nil {
			return nil, err
		}
		answers.add(a)
		capacity = max(capacity, rate)
	}
	score, matches := fastest(wins, scoreKind), fastest(wins, matchKind)
	if len(score) == 0 || len(matches) == 0 {
		return nil, fmt.Errorf("no successful requests in the fixed-rate phase")
	}
	if err := r.shutdown(); err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	m := o.metrics
	m.set("setup_s", median(setups), "s")
	m.set("wait_mean_ms", mean(score), "ms")
	m.set("wait_tail_ms", quantile(score, scoreTail), "ms")
	m.set("long_ms", median(matches), "ms")
	m.set("throughput_per_s", capacity, "1/s")
	m.set("quality", answers.f1(), "score")
	m.set("peak_rss_mb", rss, "MB")
	// Per-window figures, for telling a slowed window from a slowed run.
	for k, w := range wins {
		one := [][]*request{w}
		fmt.Printf("serve: window %d: score mean %.2f ms, p98 %.2f ms; match p50 %.2f ms\n", k,
			mean(fastest(one, scoreKind)), quantile(fastest(one, scoreKind), scoreTail), median(fastest(one, matchKind)))
	}
	fmt.Printf("serve: capacity %.0f/s (best window)\n", capacity)
	return o, nil
}

// start brings up a server on art, with a fresh generator, and warms it
// with a few requests of each kind that are not counted.
func (r *serveRun) start(ctx context.Context, art *model.Artifact) error {
	srv, err := startServer(art)
	if err != nil {
		return err
	}
	r.srv = srv
	r.o.listeners = append(r.o.listeners, srv.srv.Addr())
	r.gen = newLoadgen(srv.srv.Addr(), r.conns, r.in.bodies)
	var warm []*request
	now := time.Now()
	for i := 0; i < warmupRequests; i++ {
		warm = append(warm, &request{kind: scoreKind, body: i % scoreBodies, due: now})
	}
	for i := 0; i < 2; i++ {
		warm = append(warm, &request{kind: matchKind, body: r.next[matchKind], due: now})
		r.next[matchKind]++
	}
	r.gen.run(ctx, warm)
	for _, w := range warm {
		if !w.ok() {
			return fmt.Errorf("warm-up %s: status %d: %v", routes[w.kind], w.status, w.err)
		}
	}
	return nil
}

// shutdown stops the running server, if any, and drops the generator's
// connections. Safe to call more than once.
func (r *serveRun) shutdown() error {
	if r.srv == nil {
		return nil
	}
	r.gen.close()
	err := r.srv.stop()
	r.srv, r.gen = nil, nil
	return err
}

// phase runs one open-loop phase: the score stream at scoreRate and the
// match stream at matchRate for dur. Requests that came due but were
// never sent, and non-2xx answers, count as failed.
func (r *serveRun) phase(ctx context.Context, dur time.Duration) []*request {
	reqs := r.gen.schedule(time.Now().Add(5*time.Millisecond), dur, scoreRate, matchRate, &r.next)
	r.gen.run(ctx, reqs)
	r.account(reqs)
	return reqs
}

// account counts a phase's requests as attempted, and those that came due
// but were never sent, or were not answered 200, as failed.
func (r *serveRun) account(reqs []*request) {
	r.o.attempted += len(reqs)
	for _, q := range reqs {
		switch {
		case q.sent.IsZero():
			r.o.fail("%s request due %s never sent", routes[q.kind], q.due.Format(time.StampMicro))
		case !q.ok():
			r.o.fail("%s: status %d: %v: %s", routes[q.kind], q.status, q.err, q.resp)
		}
	}
}

// fastest returns, for every slot of one kind — its place in the window's
// schedule — the lowest latency in ms any window measured for it. A slot
// repeats the same offset (and for scores the same body) in every window,
// and interference from the host only ever adds latency, so a stretch
// the host slowed down moves no figure. Slots no window answered are
// left out.
func fastest(wins [][]*request, kind int) []float64 {
	var best []float64
	for _, w := range wins {
		slot := 0
		for _, q := range w {
			if q.kind != kind {
				continue
			}
			lat := math.Inf(1)
			if q.ok() {
				lat = ms(q.latency())
			}
			if slot == len(best) {
				best = append(best, lat)
			}
			best[slot] = math.Min(best[slot], lat)
			slot++
		}
	}
	return slices.DeleteFunc(best, func(v float64) bool { return math.IsInf(v, 1) })
}

// saturate measures the score route's capacity: one closed-loop sender
// per connection posts score bodies back to back for dur, while the match
// stream keeps its fixed open-loop rate on the same capped connections.
// It returns the successful score answers completed per second.
func (r *serveRun) saturate(ctx context.Context, dur time.Duration) (float64, confusion, error) {
	start := time.Now()
	end := start.Add(dur)
	matches := r.gen.schedule(start, dur, 0, matchRate, &r.next)
	scores := make([][]*request, r.conns)
	var wg sync.WaitGroup
	for w := range scores {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; ctx.Err() == nil; k++ {
				now := time.Now()
				if !now.Before(end) {
					return
				}
				q := &request{kind: scoreKind, body: (w + k*r.conns) % scoreBodies, due: now}
				r.gen.send(ctx, q)
				scores[w] = append(scores[w], q)
			}
		}(w)
	}
	r.gen.run(ctx, matches)
	wg.Wait()
	reqs := matches
	for _, s := range scores {
		reqs = append(reqs, s...)
	}
	r.account(reqs)
	answers, err := r.check(ctx, reqs)
	if err != nil {
		return 0, answers, err
	}
	done := 0
	for _, q := range reqs {
		if q.kind == scoreKind && q.ok() && q.done.Before(end) {
			done++
		}
	}
	rate := float64(done) / dur.Seconds()
	if rate == 0 {
		return 0, answers, fmt.Errorf("no score request completed in the capacity phase")
	}
	return rate, answers, nil
}

// check compares every answered request of a phase with the in-process
// reference: score bodies bit-equal to match.ScoreAll and the learner's
// predictions, match bodies equal to Matcher.Match on the same tables.
// It returns the phase's match answers counted against the generator's
// truth.
func (r *serveRun) check(ctx context.Context, reqs []*request) (confusion, error) {
	var c confusion
	for _, q := range reqs {
		if !q.ok() {
			continue
		}
		if q.kind == scoreKind {
			if err := r.checkScore(ctx, q); err != nil {
				r.o.fail("%v", err)
			}
			continue
		}
		got, err := r.checkMatch(ctx, q)
		if err != nil {
			r.o.fail("%v", err)
			continue
		}
		truth := r.in.tables[q.body].truth
		for _, p := range got.Pairs {
			if truth[[2]string{p.LeftID, p.RightID}] {
				c.tp++
			} else {
				c.fp++
			}
		}
		c.fn += len(truth)
	}
	c.fn -= c.tp
	return c, nil
}

// confusion counts match answers against the generator's truth.
type confusion struct{ tp, fp, fn int }

func (c *confusion) add(o confusion) { c.tp, c.fp, c.fn = c.tp+o.tp, c.fp+o.fp, c.fn+o.fn }

func (c confusion) f1() float64 { return ratio(float64(2*c.tp), float64(2*c.tp+c.fp+c.fn)) }

func (r *serveRun) checkScore(ctx context.Context, q *request) error {
	var got scoreAnswer
	if err := json.Unmarshal(q.resp, &got); err != nil {
		return fmt.Errorf("score body %d: decoding answer: %w", q.body, err)
	}
	vecs := r.in.vectors[q.body]
	want, err := match.ScoreAll(ctx, r.ref.Learner, vecs)
	if err != nil {
		return err
	}
	if len(got.Scores) != len(want) || len(got.Matches) != len(vecs) {
		return fmt.Errorf("score body %d: %d scores for %d vectors", q.body, len(got.Scores), len(want))
	}
	for i := range want {
		if math.Float64bits(got.Scores[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("score body %d vector %d: served %v, in-process %v", q.body, i, got.Scores[i], want[i])
		}
		if got.Matches[i] != r.ref.Learner.Predict(vecs[i]) {
			return fmt.Errorf("score body %d vector %d: served match=%v disagrees with Predict", q.body, i, got.Matches[i])
		}
	}
	return nil
}

func (r *serveRun) checkMatch(ctx context.Context, q *request) (*matchAnswer, error) {
	var got matchAnswer
	if err := json.Unmarshal(q.resp, &got); err != nil {
		return nil, fmt.Errorf("match body %d: decoding answer: %w", q.body, err)
	}
	tp := r.in.tables[q.body]
	want, candidates, err := r.matcher.Match(ctx, tp.left, tp.right)
	if err != nil {
		return nil, fmt.Errorf("match body %d: in-process Match: %w", q.body, err)
	}
	if got.Candidates != candidates || len(got.Pairs) != len(want) {
		return nil, fmt.Errorf("match body %d: served %d pairs of %d candidates, in-process %d of %d",
			q.body, len(got.Pairs), got.Candidates, len(want), candidates)
	}
	for i, p := range want {
		g := got.Pairs[i]
		if g.LeftID != p.LeftID || g.RightID != p.RightID ||
			math.Float64bits(g.Confidence) != math.Float64bits(p.Confidence) {
			return nil, fmt.Errorf("match body %d pair %d: served %+v, in-process %+v", q.body, i, g, p)
		}
	}
	return &got, nil
}

// traced runs the fixed-rate phase twice — untraced, then with a span per
// request — reads server time from /metrics around the traced phase, and
// replays every traced body in-process through the layer calls.
func (r *serveRun) traced(ctx context.Context, dur time.Duration, t *trained) error {
	base := r.phase(ctx, dur)
	if _, err := r.check(ctx, base); err != nil {
		return err
	}
	tr := newTracer()
	r.tr = tr
	mem := markMem()
	before, err := r.gen.scrape(ctx)
	if err != nil {
		return err
	}
	reqs := r.phase(ctx, dur)
	after, err := r.gen.scrape(ctx)
	if err != nil {
		return err
	}
	if _, err := r.check(ctx, reqs); err != nil {
		return err
	}
	var sent int
	var late []float64
	var clientScore, rejected float64
	for _, q := range reqs {
		if q.sent.IsZero() {
			continue
		}
		sent++
		late = append(late, ms(q.late()))
		if !q.ok() {
			rejected++
		}
		id := fmt.Sprintf("%s#%d", routes[q.kind], q.body)
		root := tr.add("request", 0, id, q.due, q.done)
		tr.add("loadgen.wait", root, id, q.due, q.sent)
		tr.add([...]string{scoreKind: "serve.score", matchKind: "serve.match"}[q.kind], root, id, q.sent, q.done)
		if q.kind == scoreKind && q.ok() {
			clientScore += ms(q.done.Sub(q.sent))
		}
	}
	st, err := r.replay(ctx, reqs)
	if err != nil {
		return err
	}
	memd := mem.since()

	p := tr.profile()
	unattr := p.unattributed()
	if frac := ratio(unattr.Seconds(), p.wall.Seconds()); frac > 0.10 {
		r.o.fail("layer self-times cover %.1f%% of the traced wall, want ≥90%%", 100*(1-frac))
	}
	path, err := tr.write(traceDir(r.opt.root), fmt.Sprintf("%s-seed%d.jsonl", r.opt.workload, r.opt.seed))
	if err != nil {
		return err
	}
	fmt.Printf("serve: trace written to %s (%d requests)\n", path, sent)

	delta := func(series string) float64 { return after[series] - before[series] }
	serverMS := func(route string) float64 {
		return 1e3 * ratio(delta(routeSeries("alem_http_request_duration_seconds_sum", route)),
			delta(routeSeries("alem_http_request_duration_seconds_count", route)))
	}
	scores := float64(p.count["serve.score"])
	batches := delta("alem_score_batches_total")
	hits, misses := delta("alem_matcher_extractor_reuse_hits_total"), delta("alem_matcher_extractor_reuse_misses_total")

	m := r.o.metrics
	m.layer("dataset.load_s", r.in.loadTime.Seconds())
	st.metrics(m, p)
	m.layer("tree.train_s", t.train.Seconds())
	m.layer("model.load_s", t.loadTime.Seconds())
	m.layer("match.match_ms", 1e3*ratio(p.sec("match.match"), float64(p.count["match.match"])))
	m.layer("match.score_ms", 1e3*ratio(p.sec("match.score"), float64(p.count["match.score"])))
	m.layer("serve.score.server_ms", serverMS("/v1/score"))
	m.layer("serve.match.server_ms", serverMS("/v1/match"))
	m.layer("serve.score.outside_ms", ratio(clientScore, scores)-serverMS("/v1/score"))
	m.layer("serve.vectors_per_batch", ratio(delta("alem_score_vectors_total"), batches))
	m.layer("serve.requests_per_batch", ratio(delta("alem_score_requests_total"), batches))
	m.layer("serve.extractor_hit_frac", ratio(hits, hits+misses))
	m.layer("serve.rejected", rejected)
	m.layer("serve.unattributed_frac", ratio(unattr.Seconds(), p.wall.Seconds()))
	m.layer("loadgen.late_p50_ms", quantile(late, 0.5))
	m.layer("loadgen.late_p99_ms", quantile(late, 0.99))
	m.layer("loadgen.sent", float64(sent))
	memd.metrics(m)
	var baseSum, tracedSum time.Duration
	for _, q := range base {
		baseSum += q.latency()
	}
	for _, q := range reqs {
		tracedSum += q.latency()
	}
	m.layer("trace.overhead_frac", tracedSum.Seconds()/baseSum.Seconds()-1)
	return nil
}

// replay runs every answered body of a phase in-process: score bodies
// through match.ScoreAll, match bodies through Matcher.Match, and match
// bodies again through the blocking and feature calls Match makes, to
// split its time by layer.
func (r *serveRun) replay(ctx context.Context, reqs []*request) (pipelineCounts, error) {
	var st pipelineCounts
	tr := r.tr
	root := tr.open("replay", 0, "replay")
	defer tr.close(root)
	ext := feature.NewExtractor(r.ref.Meta.Schema)
	for _, q := range reqs {
		if !q.ok() {
			continue
		}
		id := fmt.Sprintf("%s#%d", routes[q.kind], q.body)
		var err error
		if q.kind == scoreKind {
			tr.timed("match.score", root, id, func() { _, err = match.ScoreAll(ctx, r.ref.Learner, r.in.vectors[q.body]) })
			if err != nil {
				return st, err
			}
			continue
		}
		tp := r.in.tables[q.body]
		tr.timed("match.match", root, id, func() { _, _, err = r.matcher.Match(ctx, tp.left, tp.right) })
		if err != nil {
			return st, err
		}
		d := dataset.NewDataset("match", tp.left, tp.right, tp.keys, r.ref.Meta.BlockThreshold)
		res, err := tracedCandidates(ctx, tr, root, id, d, &st)
		if err != nil {
			return st, err
		}
		tr.timed("feature.extract", root, id, func() { ext.ExtractPairs(d, res.Pairs) })
		st.featurized += len(res.Pairs)
	}
	if err := ctx.Err(); err != nil {
		return st, fmt.Errorf("replay cut short: %w", err)
	}
	return st, nil
}
