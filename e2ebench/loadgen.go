package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Request kinds.
const (
	scoreKind = iota
	matchKind
)

var routes = [...]string{scoreKind: "/v1/score", matchKind: "/v1/match"}

// request is one scheduled call of the open-loop generator.
type request struct {
	kind int
	body int // index into the workload's bodies of that kind
	due  time.Time
	// Filled in by the generator.
	sent, done time.Time
	status     int
	resp       []byte
	err        error
}

func (r *request) latency() time.Duration { return r.done.Sub(r.due) }
func (r *request) late() time.Duration    { return r.sent.Sub(r.due) }
func (r *request) ok() bool               { return r.err == nil && r.status == http.StatusOK }

// loadgen drives an open loop: each request is handed to a sender when
// it comes due, whether or not earlier ones have returned, and at most
// conns requests are in flight — one per keep-alive connection.
type loadgen struct {
	base      string
	conns     int
	client    *http.Client
	transport *http.Transport
	bodies    [2][][]byte
}

func newLoadgen(addr string, conns int, bodies [2][][]byte) *loadgen {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &loadgen{
		base: "http://" + addr, conns: conns, bodies: bodies,
		client: &http.Client{Transport: tr}, transport: tr,
	}
}

// close drops the generator's idle keep-alive connections.
func (g *loadgen) close() { g.transport.CloseIdleConnections() }

// schedule lays out a phase starting at start: score requests at
// scoreRate and match requests at matchRate per second for dur, each
// stream's body indices continuing from next and wrapping at the number
// of bodies. It returns the requests in due order.
func (g *loadgen) schedule(start time.Time, dur time.Duration, scoreRate, matchRate float64, next *[2]int) []*request {
	var out []*request
	rates := [2]float64{scoreKind: scoreRate, matchKind: matchRate}
	for kind, rate := range rates {
		if rate <= 0 {
			continue
		}
		period := time.Duration(float64(time.Second) / rate)
		// The match stream is offset by half a period so the two streams
		// do not start in lockstep.
		offset := time.Duration(kind) * period / 2
		for t := offset; t < dur; t += period {
			out = append(out, &request{kind: kind, body: next[kind] % len(g.bodies[kind]), due: start.Add(t)})
			next[kind]++
		}
	}
	// Stable, so a score request due at the same instant as a match
	// request goes first on every run.
	sort.SliceStable(out, func(i, j int) bool { return out[i].due.Before(out[j].due) })
	return out
}

// run sends every request of a phase at its due time and returns once
// all have been answered or ctx ends; requests still queued when ctx
// ends are never sent (their sent time stays zero).
func (g *loadgen) run(ctx context.Context, reqs []*request) {
	// Sized to the number of sends, so the dispatcher never blocks on a
	// busy sender and lateness is measured from the due time.
	jobs := make(chan *request, len(reqs))
	var wg sync.WaitGroup
	for i := 0; i < g.conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range jobs {
				if ctx.Err() != nil {
					continue
				}
				g.send(ctx, r)
			}
		}()
	}
	timer := time.NewTimer(0)
	<-timer.C
dispatch:
	for _, r := range reqs {
		if d := time.Until(r.due); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
				break dispatch
			}
		}
		jobs <- r
	}
	timer.Stop()
	close(jobs)
	wg.Wait()
}

func (g *loadgen) send(ctx context.Context, r *request) {
	r.sent = time.Now()
	defer func() { r.done = time.Now() }()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.base+routes[r.kind],
		bytes.NewReader(g.bodies[r.kind][r.body]))
	if err != nil {
		r.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := g.client.Do(req)
	if err != nil {
		r.err = err
		return
	}
	defer resp.Body.Close()
	r.status = resp.StatusCode
	r.resp, r.err = io.ReadAll(resp.Body)
}

// scrape fetches the server's /metrics as a map from series (name plus
// rendered labels) to value.
func (g *loadgen) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scraping /metrics: %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	return out, nil
}

// routeSeries names a per-route series of a metric family.
func routeSeries(name, route string) string { return fmt.Sprintf("%s{route=%q}", name, route) }
