// Command perfbench is the repository's benchmark: one process drives
// one workload (crawl-stream, cold-mount or hot-serve) through the
// public APIs of gplus, snapstore, experiments and sanserve, checks
// the outputs, and prints its metrics.  See README.md.
//
//	bash perfbench/run.sh --workload crawl-stream --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
// metrics are the end-to-end set, with --trace 1 the per-layer set.
// `perfbench compare A.json B.json` compares two --out reports.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	out      string // full report (host stamp, checks, metrics), optional
	traceOut string // span dump of a traced run, optional

	// Fixed for the benchmark; the package tests shrink them.
	scale  int    // gplus DailyBase of every simulated timeline
	modelT int    // model-figure network size; 0 keeps experiments.QuickConfig's
	setups int    // set-ups per run; setup_s is their median
	dir    string // scratch directory, removed at exit
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"crawl-stream": runCrawl,
	"cold-mount":   runCold,
	"hot-serve":    runHot,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep, err := execute(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, line := range rep.humanLines() {
		fmt.Println(line)
	}
	last, err := json.Marshal(rep.resultLine(o.trace))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(last))
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var seconds, trace int
	fs.StringVar(&o.workload, "workload", "", "crawl-stream, cold-mount or hot-serve")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&seconds, "seconds", 10, "measured time per run")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.out, "out", "", "write the full report (host stamp, checks, all metrics) to this file")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the traced run's spans to this file")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown --workload %q (want crawl-stream, cold-mount or hot-serve)", o.workload)
	}
	if seconds < 1 || trace < 0 || trace > 1 {
		return o, errors.New("--seconds must be positive and --trace 0 or 1")
	}
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	o.scale, o.setups = 1000, 3
	o.dir = filepath.Join(".bench_build", "perfbench-work", fmt.Sprintf("%s-%d", o.workload, os.Getpid()))
	return o, nil
}

// bench is one run's state: the options, the tracer of a traced run,
// the operation and check tally, and every measured value by name.
type bench struct {
	o  options
	tr *Tracer // nil on untraced runs

	attempted, failed int
	failures          []string

	setups []time.Duration
	vals   map[string]float64

	// passSelf holds each traced pass's per-span-name self times.
	passSelf []map[string]time.Duration
	mem0     runtime.MemStats
}

// op counts one attempted operation; a false ok counts it as failed.
func (b *bench) op(ok bool, format string, args ...any) bool {
	b.attempted++
	if !ok {
		b.failed++
		if len(b.failures) < 20 {
			b.failures = append(b.failures, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// set records a measured value.  A non-finite one (a ratio of empty
// counts) stays unset, so it reads 0 in the result line.
func (b *bench) set(name string, v float64) {
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		b.vals[name] = v
	}
}

// setup runs fn o.setups times, timing each; setup_s is the median.
// fn receives the set-up index so it can keep the last one's state.
func (b *bench) setup(fn func(i int) error) error {
	for i := 0; i < b.o.setups; i++ {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		b.setups = append(b.setups, time.Since(t0))
	}
	return nil
}

// startMeasure marks the start of the measured section: it resets the
// peak resident set, so obs.PeakRSS from here on covers only the
// measured work, and takes the runtime.MemStats baseline.
func (b *bench) startMeasure() {
	err := resetPeakRSS()
	b.op(err == nil, "reset peak RSS: %v", err)
	runtime.ReadMemStats(&b.mem0)
}

// resetPeakRSS returns the heap that set-up freed to the OS, then
// resets the kernel's resident high-water mark (VmHWM, which
// obs.PeakRSS reads) to the current resident set by writing "5" to
// /proc/self/clear_refs (Linux 4.0 and later).
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

func (b *bench) endMeasure() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	b.set("go.alloc_bytes", float64(m.TotalAlloc-b.mem0.TotalAlloc))
	b.set("go.gc_cycles", float64(m.NumGC-b.mem0.NumGC))
	b.set("go.gc_pause_s", float64(m.PauseTotalNs-b.mem0.PauseTotalNs)/1e9)
}

// traced runs fn as one traced pass and records the self time each
// span name accumulated during it.
func (b *bench) traced(fn func() error) error {
	before := b.tr.SelfTimes()
	err := fn()
	b.passSelf = append(b.passSelf, selfDelta(before, b.tr.SelfTimes()))
	return err
}

// selfMedian is the median over traced passes of the self time, in
// seconds, of the spans called name.
func (b *bench) selfMedian(name string) float64 {
	xs := make([]float64, len(b.passSelf))
	for i, p := range b.passSelf {
		xs[i] = p[name].Seconds()
	}
	return median(xs)
}

// layerSelf sets NAME_s to selfMedian(NAME) for each span name.
func (b *bench) layerSelf(names ...string) {
	for _, name := range names {
		b.set(name+"_s", b.selfMedian(name))
	}
}

func execute(o options) (*report, error) {
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(o.dir)
	b := &bench{o: o, vals: map[string]float64{}}
	if o.trace {
		b.tr = newTracer(200_000)
	}
	if err := workloads[o.workload](b); err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	host := stampHost()
	var spanSelf map[string]float64
	if b.tr != nil {
		spans, dropped := b.tr.Spans()
		err := checkSpans(spans)
		b.op(err == nil, "span tree: %v", err)
		spanSelf = map[string]float64{}
		for name, d := range b.tr.SelfTimes() {
			spanSelf[name] = d.Seconds()
		}
		if o.traceOut != "" {
			if err := writeJSON(o.traceOut, map[string]any{"host": host, "spans": spans, "dropped": dropped}); err != nil {
				return nil, err
			}
		}
	}
	b.set("setup_s", median(durSeconds(b.setups)))
	b.set("failed_ratio", float64(b.failed)/float64(max(b.attempted, 1)))
	rep := &report{
		Host:      host,
		Workload:  o.workload,
		Seed:      o.seed,
		Seconds:   int(o.seconds / time.Second),
		Scale:     o.scale,
		Traced:    o.trace,
		Attempted: b.attempted,
		Failed:    b.failed,
		Failures:  b.failures,
		Values:    b.vals,
		SpanSelfS: spanSelf,
	}
	if o.out != "" {
		if err := writeJSON(o.out, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func durSeconds(ds []time.Duration) []float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return xs
}

// report is the full record of one run, written by --out.
type report struct {
	Host      hostStamp          `json:"host"`
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   int                `json:"seconds"`
	Scale     int                `json:"scale"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Values    map[string]float64 `json:"values"`
	SpanSelfS map[string]float64 `json:"span_self_s,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultLine is the last stdout line: the end-to-end metrics of an
// untraced run, or the per-layer metrics of a traced one (a layer the
// workload leaves idle reads 0).
func (r *report) resultLine(traced bool) resultLine {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	out := resultLine{
		Correct:   r.Failed == 0,
		Attempted: max(r.Attempted, 1),
		Failed:    r.Failed,
		Metrics:   map[string]metricValue{},
	}
	for _, s := range specs {
		out.Metrics[s.Name] = metricValue{Value: r.Values[s.Name], Unit: s.Unit}
	}
	return out
}

// humanLines prints the host stamp, any failed checks and every
// measured value by name and unit, before the JSON result line.
func (r *report) humanLines() []string {
	units := map[string]string{}
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		units[s.Name] = s.Unit
	}
	lines := []string{fmt.Sprintf("# %s seed=%d seconds=%d scale=%d traced=%v host=%s",
		r.Workload, r.Seed, r.Seconds, r.Scale, r.Traced, r.Host)}
	for _, f := range r.Failures {
		lines = append(lines, "# FAILED: "+f)
	}
	names := make([]string, 0, len(r.Values))
	for n := range r.Values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		lines = append(lines, fmt.Sprintf("%-34s %16.6g %s", n, r.Values[n], units[n]))
	}
	return lines
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// peakRSSPerUser is the process's peak resident set since startMeasure
// divided by the number of simulated users the workload handled.
func peakRSSPerUser(users int) float64 {
	if users <= 0 {
		return 0
	}
	return float64(obs.PeakRSS()) / float64(users)
}

// compareMain prints the per-metric ratio of two --out reports of one
// workload, refusing reports taken at different core counts.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare BASE.json NEW.json")
		return 2
	}
	var reps [2]report
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &reps[i])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			return 2
		}
	}
	if err := comparable(reps[0], reps[1]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare: refusing:", err)
		return 3
	}
	names := make([]string, 0, len(reps[1].Values))
	for n := range reps[1].Values {
		if _, ok := reps[0].Values[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	fmt.Printf("%-34s %14s %14s %8s\n", "metric", "base", "new", "new/base")
	for _, n := range names {
		a, c := reps[0].Values[n], reps[1].Values[n]
		fmt.Printf("%-34s %14.6g %14.6g %8.3f\n", n, a, c, c/a)
	}
	return 0
}

// comparable enforces the ledger rule: results are compared only for
// one workload and scale at the same core count and GOMAXPROCS.
func comparable(a, b report) error {
	var diffs []string
	if a.Host.NumCPU != b.Host.NumCPU {
		diffs = append(diffs, fmt.Sprintf("nproc %d vs %d", a.Host.NumCPU, b.Host.NumCPU))
	}
	if a.Host.GOMAXPROCS != b.Host.GOMAXPROCS {
		diffs = append(diffs, fmt.Sprintf("GOMAXPROCS %d vs %d", a.Host.GOMAXPROCS, b.Host.GOMAXPROCS))
	}
	if a.Workload != b.Workload || a.Scale != b.Scale || a.Traced != b.Traced {
		diffs = append(diffs, fmt.Sprintf("runs differ (%s scale %d traced %v vs %s scale %d traced %v)",
			a.Workload, a.Scale, a.Traced, b.Workload, b.Scale, b.Traced))
	}
	if len(diffs) > 0 {
		return errors.New(strings.Join(diffs, "; "))
	}
	return nil
}
