package main

import (
	"math"
	"sort"
	"time"
)

// metricSpec names one reported metric.  The lists below are the
// benchmark's vocabulary; BENCHMARK.json at the repository root lists
// the same names (the package tests pin the two together).
type metricSpec struct {
	Name, Unit string
}

// endToEnd are reported by every untraced run of every workload.  Each
// has a per-workload meaning (README.md, "End-to-end metrics").
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"pass_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_us", "us"},
	{"peak_rss_bytes_per_user", "B/user"},
	{"packed_bytes_per_user", "B/user"},
}

// figureIDs are the experiments registry IDs, fixed here so the
// per-layer metric names do not depend on the program under test.
var figureIDs = []string{
	"10", "11", "12a", "12b", "13", "14", "15", "16", "17", "18", "19",
	"2", "3", "4", "5", "6", "7a", "7b", "8", "9", "dist", "summary", "tc",
}

// perLayer are reported by every traced run; a metric of a layer the
// workload leaves idle reads 0.
var perLayer = func() []metricSpec {
	l := []metricSpec{
		// The workload-specific end-to-end figures, measured on the
		// traced run's untraced passes.
		{"failed_ratio", "ratio"},
		{"stream.users_per_s", "1/s"},
		{"stream.peak_rss_bytes_per_user", "B/user"},
		{"stream.packed_bytes_per_user", "B/user"},
		{"cold.mount_s", "s"},
		{"cold.first_figure_s", "s"},
		{"cold.all_figures_s", "s"},
		{"cold.stream_fold_rows_per_s", "1/s"},
		{"hot.req_per_s", "1/s"},
		{"hot.figure_p50_us", "us"},
		{"hot.figure_p99_us", "us"},
		{"hot.figure_samples", "count"},
		{"hot.snapshot_p99_us", "us"},
		{"hot.snapshot_per_s", "1/s"},
		{"hot.snapshot_samples", "count"},
		{"hot.stream_rows_per_s", "1/s"},

		// crawl-stream layers.
		{"gplus.phase1_s", "s"},
		{"gplus.phase2_s", "s"},
		{"gplus.phase3_s", "s"},
		{"gplus.crawl_view_s", "s"},
		{"gplus.write_state_s", "s"},
		{"gplus.state_bytes", "bytes"},
		{"snapstore.full_append_s", "s"},
		{"snapstore.view_append_s", "s"},
		{"snapstore.flush_s", "s"},
		{"snapstore.finalize_s", "s"},
		{"snapstore.full_bytes", "bytes"},
		{"snapstore.view_bytes", "bytes"},
		{"crawl-stream.unaccounted_s", "s"},

		// cold-mount layers.
		{"snapstore.load_s", "s"},
		{"sanserve.mount_validate_s", "s"},
		{"snapstore.cursor_next_s", "s"},
		{"experiments.feed_s", "s"},
		{"experiments.measure_s", "s"},
		{"experiments.measure_diam_s", "s"},
		{"experiments.build_s", "s"},
		{"sanserve.figure_overhead_s", "s"},
		{"cold-mount.unaccounted_s", "s"},
	}
	for _, id := range figureIDs {
		l = append(l, metricSpec{"experiments.fig." + id + "_s", "s"})
	}
	return append(l,
		// hot-serve layers.
		metricSpec{"sanserve.healthz_p50_us", "us"},
		metricSpec{"sanserve.cache_hit_ratio", "ratio"},
		metricSpec{"obs.analytics_dropped", "count"},
		metricSpec{"snapstore.store_hit_ratio", "ratio"},
		metricSpec{"snapstore.store_evictions", "count"},

		// Every workload.
		metricSpec{"go.alloc_bytes", "bytes"},
		metricSpec{"go.gc_cycles", "count"},
		metricSpec{"go.gc_pause_s", "s"},
		metricSpec{"trace.overhead_ratio", "ratio"},
	)
}()

// median returns the middle value (mean of the middle two for even
// counts); NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the p-quantile (0..1) of sorted durations by the
// nearest-rank rule.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// tailOK reports whether a p-quantile of n samples has at least ten
// samples beyond it, the rule for reporting a percentile at all.
func tailOK(n int, p float64) bool {
	return float64(n)*(1-p) >= 10
}

func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func sortDurations(ds []time.Duration) {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
}
