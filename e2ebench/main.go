// Command e2ebench is alem's end-to-end benchmark. It runs one workload
// in a single process — two active-learning workloads and one serving
// workload — checks every output against an in-process reference, and
// prints one JSON result as the last line of standard output. Run it
// from the repository root through its build script:
//
//	bash e2ebench/run.sh --workload al-large --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// a separately traced run reports the per-layer metrics and writes its
// spans to .bench_build/e2ebench/traces/. README.md in this directory
// defines every workload and metric.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runDeadline bounds a whole invocation: the benchmark must exit well
// inside three minutes even when the host is slow.
const runDeadline = 170 * time.Second

// endToEnd and perLayer are the metric names BENCHMARK.json declares, in
// its order. Every untraced result carries every end-to-end metric and
// every traced result every per-layer metric; a layer a workload does not
// reach reports 0.
var endToEnd = []string{
	"setup_s", "wait_mean_ms", "wait_tail_ms", "long_ms",
	"throughput_per_s", "quality", "peak_rss_mb",
}

var perLayer = []string{
	"dataset.load_s",
	"blocking.build_s", "blocking.candidates_s", "blocking.pairs",
	"blocking.keep_frac", "blocking.recall",
	"feature.extract_s", "feature.bool_extract_s", "feature.pairs", "feature.us_per_pair",
	"tree.train_s", "linear.train_s", "neural.train_s", "rules.train_s", "core.train_rows",
	"core.seed_s", "core.evaluate_s", "core.evaluate_rows", "core.select_s",
	"core.select.committee_s", "core.select.score_s", "core.label_s", "core.steps",
	"core.unattributed_s", "core.unattributed_frac",
	"oracle.queries", "oracle.batches", "oracle.abstains", "oracle.spent_usd", "oracle.useful_frac",
	"model.load_s",
	"match.match_ms", "match.score_ms",
	"serve.score.server_ms", "serve.match.server_ms", "serve.score.outside_ms",
	"serve.vectors_per_batch", "serve.requests_per_batch", "serve.extractor_hit_frac",
	"serve.rejected", "serve.unattributed_frac",
	"loadgen.late_p50_ms", "loadgen.late_p99_ms", "loadgen.sent",
	"runtime.alloc_mb", "runtime.gc_cycles", "runtime.gc_pause_ms",
	"trace.overhead_frac",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// layer sets a per-layer metric with the unit its name implies.
func (m metricSet) layer(name string, v float64) { m.set(name, v, unitOf(name)) }

// outcome is what a workload run reports: its metrics, its operation
// counts, and the output checks that failed (each also counted in
// failed).
type outcome struct {
	metrics   metricSet
	attempted int
	failed    int
	problems  []string
	// listeners are the addresses of every server the run started; the
	// harness test checks that each refuses connections afterwards.
	listeners []string
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string
}

// workloads are defined, with the reason for each, in README.md.
var workloads = []struct {
	name string
	run  func(ctx context.Context, opt options) (*outcome, error)
}{
	{"al-large", runALLarge},
	{"al-small-priced", runALSmallPriced},
	{"serve-mixed", runServeMixed},
}

func main() {
	var opt options
	var traceFlag int
	flag.StringVar(&opt.workload, "workload", "", "workload name")
	flag.Int64Var(&opt.seed, "seed", 1, "workload seed; every input is generated from it")
	flag.Float64Var(&opt.seconds, "seconds", 15, "measured time per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.StringVar(&opt.root, "root", ".", "checkout root (source digest and trace output)")
	flag.Parse()
	opt.trace = traceFlag == 1
	if err := run(opt, traceFlag); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(opt options, traceFlag int) (err error) {
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	}
	if opt.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %g", opt.seconds)
	}
	var names []string
	var measure func(context.Context, options) (*outcome, error)
	for _, w := range workloads {
		names = append(names, w.name)
		if w.name == opt.workload {
			measure = w.run
		}
	}
	if measure == nil {
		return fmt.Errorf("unknown --workload %q (want one of %s)", opt.workload, strings.Join(names, ", "))
	}
	host, err := hostRecord(opt.root)
	if err != nil {
		return err
	}
	host["workload"], host["seed"], host["trace"] = opt.workload, opt.seed, opt.trace
	steal := readSteal()

	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("workload %s panicked: %v", opt.workload, r)
		}
	}()
	out, err := measure(ctx, opt)
	if err != nil {
		return fmt.Errorf("workload %s: %w", opt.workload, err)
	}
	// The VM's CPU steal over the run tells a slow result from a busy host.
	host["cpu_steal_frac"] = steal.since()
	if err := complete(out.metrics, opt.trace); err != nil {
		return err
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	line, err := json.Marshal(map[string]any{"host": host})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	res, err := json.Marshal(map[string]any{
		"correct":   out.failed == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   out.metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(res))
	if out.failed != 0 {
		return fmt.Errorf("%d operations failed their output checks", out.failed)
	}
	return nil
}

// complete checks that a workload reported only declared metrics, and
// fills per-layer metrics for layers the workload does not reach with 0.
func complete(m metricSet, traced bool) error {
	want := endToEnd
	if traced {
		want = perLayer
	}
	known := map[string]bool{}
	for _, n := range want {
		known[n] = true
	}
	for n := range m {
		if !known[n] {
			return fmt.Errorf("workload reported undeclared metric %q", n)
		}
	}
	for _, n := range want {
		if _, ok := m[n]; ok {
			continue
		}
		if !traced {
			return fmt.Errorf("workload did not report end-to-end metric %q", n)
		}
		m.set(n, 0, unitOf(n))
	}
	return nil
}

// unitOf infers the unit of a per-layer metric from its name suffix.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_usd"):
		return "USD"
	case strings.HasSuffix(name, "_frac"), name == "blocking.recall":
		return "fraction"
	case strings.HasSuffix(name, "_per_pair"):
		return "us"
	case strings.HasSuffix(name, "_per_batch"):
		return "count/batch"
	}
	return "count"
}

// hostRecord identifies the machine and the code a result came from.
func hostRecord(root string) (map[string]any, error) {
	digest, err := sourceDigest(root)
	if err != nil {
		return nil, err
	}
	return map[string]any{
		"cpu_model":     cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"commit":        gitCommit(root),
		"source_sha256": digest,
	}, nil
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD's commit from the checkout's .git directory, or
// reports "none" for a checkout that is not a git repository (the source
// digest then identifies the code).
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "none"
}

// sourceDigest hashes every Go source and module file under root, so a
// result names the exact code it measured even outside a git checkout.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("source digest: %w", err)
	}
	sort.Strings(files)
	h := sha256.New()
	for _, path := range files {
		rel, _ := filepath.Rel(root, path)
		f, err := os.Open(path)
		if err != nil {
			return "", fmt.Errorf("source digest: %w", err)
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(rel))
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", fmt.Errorf("source digest: %w", err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// stealMark is a reading of the host's CPU time counters: the steal
// column and the total, in clock ticks, from /proc/stat.
type stealMark struct{ steal, total float64 }

func readSteal() stealMark {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealMark{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	var m stealMark
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user and nice.
	for i, f := range fields[1:min(len(fields), 9)] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return stealMark{}
		}
		m.total += v
		if i == 7 {
			m.steal = v
		}
	}
	return m
}

// since returns the share of CPU time stolen from the VM since m, or -1
// when the counters are unavailable.
func (m stealMark) since() float64 {
	now := readSteal()
	if m.total == 0 || now.total <= m.total {
		return -1
	}
	return (now.steal - m.steal) / (now.total - m.total)
}

// traceDir is where traced runs write their span files.
func traceDir(root string) string { return filepath.Join(root, ".bench_build", "e2ebench", "traces") }
