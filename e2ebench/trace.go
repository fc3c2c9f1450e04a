package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the program's public functions. Parent is the id of the enclosing span
// (0 for a root); Run groups the spans of one session or one request.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Run    string `json:"run"`
	// Start and End are offsets from the tracer's epoch.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

// structural spans frame the work (a set-up, a session, a step, a
// request) rather than name a layer; their self time is the benchmark's
// unattributed time.
var structural = map[string]bool{
	"workload": true, "setup": true, "round": true, "session": true,
	"step": true, "request": true, "replay": true,
}

// tracer keeps spans in memory; they are written out once, at exit. A
// nil tracer records nothing, which is how untraced runs call the same
// code.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a span over [start, end] and returns its id.
func (t *tracer) add(name string, parent int, run string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Run: run,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch),
	})
	return id
}

// open starts a span whose end is set later by close; it returns the id.
func (t *tracer) open(name string, parent int, run string) int {
	now := time.Now()
	return t.add(name, parent, run, now, now)
}

func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].End = now.Sub(t.epoch)
	t.mu.Unlock()
}

// timed runs f inside a span and returns its wall time.
func (t *tracer) timed(name string, parent int, run string, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.add(name, parent, run, start, end)
	return end.Sub(start)
}

// profile is the per-name accounting of a trace: total span duration,
// self time (duration minus the union of its children's intervals) and
// span count.
type profile struct {
	total, self map[string]time.Duration
	count       map[string]int
	wall        time.Duration // sum of root span durations
}

func (t *tracer) profile() profile {
	p := profile{
		total: map[string]time.Duration{},
		self:  map[string]time.Duration{},
		count: map[string]int{},
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		} else {
			p.wall += s.End - s.Start
		}
	}
	for _, s := range t.spans {
		d := s.End - s.Start
		p.total[s.Name] += d
		p.self[s.Name] += d - covered(s, children[s.ID])
		p.count[s.Name]++
	}
	return p
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			sum += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return sum + curHi - curLo
}

// unattributed is the self time of the structural spans: time inside the
// traced wall that no layer span covers.
func (p profile) unattributed() time.Duration {
	var u time.Duration
	for name, d := range p.self {
		if structural[name] {
			u += d
		}
	}
	return u
}

// sec returns a span name's total duration in seconds.
func (p profile) sec(name string) float64 { return p.total[name].Seconds() }

// write saves the spans as JSON lines under dir and returns the path.
func (t *tracer) write(dir, file string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("writing trace %s: %w", path, err)
	}
	return path, nil
}
