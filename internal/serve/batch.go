package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/alem/alem/internal/core"
	"github.com/alem/alem/internal/feature"
	"github.com/alem/alem/internal/match"
)

// ErrDraining is returned by submit once the pool has begun shutting
// down; handlers translate it to 503 so load balancers retry elsewhere.
var ErrDraining = errors.New("serve: server is draining")

// scoreJob is one /v1/score request's work unit.
type scoreJob struct {
	ctx  context.Context
	vecs []feature.Vector
	out  chan scoreResult // buffered 1: delivery never blocks a worker
}

type scoreResult struct {
	scores  []float64
	matches []bool
	err     error
}

// scorePool is a bounded worker pool with request batching: concurrent
// /v1/score requests are coalesced into merged batches so the learner is
// driven with large contiguous runs instead of per-request crumbs, and
// at most Workers batches ever execute concurrently. The intake queue is
// bounded, so overload turns into backpressure (submit blocks) and then
// deadline errors, never unbounded memory.
type scorePool struct {
	learner  core.Learner
	maxBatch int
	linger   time.Duration

	jobs   chan *scoreJob
	workCh chan []*scoreJob
	wg     sync.WaitGroup

	mu     sync.RWMutex
	closed bool

	// Batching statistics: reuse hits are jobs that rode along in a batch
	// opened by an earlier job — the pool-reuse rate /metrics reports.
	jobsTotal    atomic.Int64
	batchesTotal atomic.Int64
	vectorsTotal atomic.Int64
}

func newScorePool(l core.Learner, workers, maxBatch, queueDepth int, linger time.Duration) *scorePool {
	p := &scorePool{
		learner:  l,
		maxBatch: maxBatch,
		linger:   linger,
		jobs:     make(chan *scoreJob, queueDepth),
		workCh:   make(chan []*scoreJob, workers),
	}
	p.wg.Add(1 + workers)
	go p.collect()
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// submit enqueues a job, blocking for queue space (backpressure) until
// the job's deadline expires or the pool drains.
func (p *scorePool) submit(j *scoreJob) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return ErrDraining
	}
	select {
	case p.jobs <- j:
		return nil
	case <-j.ctx.Done():
		return j.ctx.Err()
	}
}

// depth reports how many jobs are waiting in the intake queue — the
// signal the load-shedding watermark reads.
func (p *scorePool) depth() int { return len(p.jobs) }

// close stops intake and waits for every accepted job to be answered.
// It is the drain step of graceful shutdown, called after the HTTP
// server has stopped accepting connections.
func (p *scorePool) close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.jobs)
	p.mu.Unlock()
	p.wg.Wait()
}

// collect merges queued jobs into batches: a batch opens with the first
// job and admits more until it holds maxBatch vectors or the linger
// window closes. Under load batches fill instantly; when idle a lone
// request pays at most linger of extra latency (none when linger is not
// positive).
func (p *scorePool) collect() {
	defer func() {
		close(p.workCh)
		p.wg.Done()
	}()
	for {
		j, ok := <-p.jobs
		if !ok {
			return
		}
		batch := []*scoreJob{j}
		n := len(j.vecs)
		if p.linger > 0 && n < p.maxBatch {
			timer := time.NewTimer(p.linger)
		fill:
			for n < p.maxBatch {
				select {
				case j2, ok := <-p.jobs:
					if !ok {
						timer.Stop()
						p.dispatch(batch)
						return
					}
					batch = append(batch, j2)
					n += len(j2.vecs)
				case <-timer.C:
					break fill
				}
			}
			timer.Stop()
		} else {
			// Opportunistically absorb whatever is already queued.
		absorb:
			for n < p.maxBatch {
				select {
				case j2, ok := <-p.jobs:
					if !ok {
						p.dispatch(batch)
						return
					}
					batch = append(batch, j2)
					n += len(j2.vecs)
				default:
					break absorb
				}
			}
		}
		p.dispatch(batch)
	}
}

func (p *scorePool) dispatch(batch []*scoreJob) {
	p.batchesTotal.Add(1)
	p.jobsTotal.Add(int64(len(batch)))
	p.workCh <- batch
}

// worker scores one merged batch at a time. Jobs whose context expired
// while queued are answered with their context error without spending
// learner time; the rest are scored as one contiguous run.
func (p *scorePool) worker() {
	defer p.wg.Done()
	for batch := range p.workCh {
		live := batch[:0]
		for _, j := range batch {
			if err := j.ctx.Err(); err != nil {
				j.out <- scoreResult{err: err}
				continue
			}
			live = append(live, j)
		}
		if len(live) == 0 {
			continue
		}
		merged := make([]feature.Vector, 0, totalVecs(live))
		for _, j := range live {
			merged = append(merged, j.vecs...)
		}
		p.vectorsTotal.Add(int64(len(merged)))
		scores, matches, err := p.scoreBatch(merged)
		off := 0
		for _, j := range live {
			if err != nil {
				j.out <- scoreResult{err: err}
				continue
			}
			end := off + len(j.vecs)
			j.out <- scoreResult{scores: scores[off:end:end], matches: matches[off:end:end]}
			off = end
		}
	}
}

// scoreBatch runs the learner over one merged batch (see match.Decide),
// containing panics: a learner that blows up on some input must fail
// that batch's jobs with 500s, not take the whole worker (and with it
// the process) down.
func (p *scorePool) scoreBatch(merged []feature.Vector) (scores []float64, matches []bool, err error) {
	defer func() {
		if rv := recover(); rv != nil {
			scores, matches, err = nil, nil, fmt.Errorf("serve: learner panic while scoring: %v", rv)
		}
	}()
	return match.Decide(context.Background(), p.learner, merged)
}

func totalVecs(jobs []*scoreJob) int {
	n := 0
	for _, j := range jobs {
		n += len(j.vecs)
	}
	return n
}

// totals reports the pool's batching statistics. The server sums these
// across every registry version (plus retired accumulators) at scrape
// time, keeping the dispatch path free of registry traffic.
func (p *scorePool) totals() (jobs, batches, vectors int64) {
	return p.jobsTotal.Load(), p.batchesTotal.Load(), p.vectorsTotal.Load()
}
