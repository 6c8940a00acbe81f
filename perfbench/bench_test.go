package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// tinyRun runs one workload at a scale small enough for a unit test.
func tinyRun(t *testing.T, workload string, traced bool) *report {
	t.Helper()
	o := options{
		workload: workload, seed: 3, seconds: time.Second, trace: traced,
		scale: 12, modelT: 300, setups: 2, dir: t.TempDir(),
	}
	rep, err := execute(o)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("%s: %d of %d operations failed: %v", workload, rep.Failed, rep.Attempted, rep.Failures)
	}
	return rep
}

func TestWorkloadsTiny(t *testing.T) {
	for _, w := range []string{"crawl-stream", "cold-mount", "hot-serve"} {
		t.Run(w, func(t *testing.T) {
			line := tinyRun(t, w, false).resultLine(false)
			if !line.Correct || len(line.Metrics) != len(endToEnd) {
				t.Fatalf("result line %+v", line)
			}
			for name, m := range line.Metrics {
				if !(m.Value > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}
		})
	}
}

func TestTracedRunsReportLayers(t *testing.T) {
	// The layers each workload keeps busy, by one metric each.
	busy := map[string][]string{
		"crawl-stream": {"gplus.phase2_s", "gplus.crawl_view_s", "snapstore.full_append_s", "gplus.write_state_s", "crawl-stream.unaccounted_s"},
		"cold-mount":   {"snapstore.load_s", "snapstore.cursor_next_s", "experiments.measure_diam_s", "experiments.build_s", "experiments.fig.16_s", "sanserve.figure_overhead_s"},
		"hot-serve":    {"hot.req_per_s", "hot.snapshot_per_s", "sanserve.healthz_p50_us", "sanserve.cache_hit_ratio", "snapstore.store_hit_ratio"},
	}
	for w, names := range busy {
		t.Run(w, func(t *testing.T) {
			rep := tinyRun(t, w, true)
			line := rep.resultLine(true)
			if len(line.Metrics) != len(perLayer) {
				t.Fatalf("traced run reports %d metrics, want %d", len(line.Metrics), len(perLayer))
			}
			for _, n := range names {
				if !(line.Metrics[n].Value > 0) {
					t.Errorf("%s = %v, want > 0", n, line.Metrics[n].Value)
				}
			}
			if _, ok := rep.Values["trace.overhead_ratio"]; !ok {
				t.Error("traced run reports no trace.overhead_ratio")
			}
			// Every value a run measures is a declared metric.
			for name := range rep.Values {
				if !slices.ContainsFunc(append(slices.Clone(endToEnd), perLayer...), func(m metricSpec) bool { return m.Name == name }) {
					t.Errorf("run measured undeclared metric %q", name)
				}
			}
		})
	}
}

func TestSpanTree(t *testing.T) {
	tr := newTracer(100)
	root := tr.Root("root")
	a := root.Child("a")
	a.Child("a1").End()
	a.End()
	root.Do("b", func() error { time.Sleep(time.Millisecond); return nil })
	root.End()
	spans, dropped := tr.Spans()
	if len(spans) != 4 || dropped != 0 {
		t.Fatalf("got %d spans, %d dropped", len(spans), dropped)
	}
	if err := checkSpans(spans); err != nil {
		t.Fatal(err)
	}
	self := tr.SelfTimes()
	for name, d := range self {
		if d < 0 {
			t.Errorf("self time of %s = %v", name, d)
		}
	}
	if self["b"] < time.Millisecond {
		t.Errorf("self time of b = %v, want >= 1ms", self["b"])
	}

	// A child outside its parent, and children covering more than
	// their parent, are both rejected.
	outside := []Span{{ID: 0, Parent: -1, Name: "p", Start: 10, End: 20}, {ID: 1, Parent: 0, Name: "c", Start: 5, End: 15}}
	if checkSpans(outside) == nil {
		t.Error("child starting before its parent accepted")
	}
	overfull := []Span{
		{ID: 0, Parent: -1, Name: "p", Start: 0, End: 10},
		{ID: 1, Parent: 0, Name: "c1", Start: 0, End: 8},
		{ID: 2, Parent: 0, Name: "c2", Start: 2, End: 10},
	}
	if checkSpans(overfull) == nil {
		t.Error("children covering more than their parent accepted")
	}

	var nilTracer *Tracer
	if r := nilTracer.Root("x"); r != nil || r.Child("y") != nil || r.End() != 0 {
		t.Error("a nil tracer recorded a span")
	}
}

// TestNamesMatchBenchmarkJSON pins the metric vocabulary to the
// repository's BENCHMARK.json and the name grammar.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	asSpecs := func(l []struct{ Name, Unit string }) []metricSpec {
		out := make([]metricSpec, len(l))
		for i, m := range l {
			out[i] = metricSpec{m.Name, m.Unit}
		}
		return out
	}
	if got := asSpecs(spec.EndToEnd); !slices.Equal(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %v, want %v", got, endToEnd)
	}
	if got := asSpecs(spec.PerLayer); !slices.Equal(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer = %v, want %v", got, perLayer)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, %d are implemented", names, len(workloads))
	}

	grammar := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, m := range append(slices.Clone(endToEnd), perLayer...) {
		if !grammar.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
	}
}

func TestCompareRefusesOtherCoreCounts(t *testing.T) {
	a := report{Host: hostStamp{NumCPU: 2, GOMAXPROCS: 2}, Workload: "hot-serve", Scale: 1000}
	b := a
	if err := comparable(a, b); err != nil {
		t.Fatalf("identical hosts refused: %v", err)
	}
	b.Host.NumCPU, b.Host.GOMAXPROCS = 4, 4
	err := comparable(a, b)
	if err == nil || !strings.Contains(err.Error(), "nproc 2 vs 4") {
		t.Fatalf("different core counts: err = %v", err)
	}
}
