package sanserve

import (
	"net/http"
	"strings"
	"sync/atomic"

	"repro/internal/obs"
)

// serverMetrics are the request-path counters; they are registered
// into the obs.Registry at construction and rendered on /metrics.
type serverMetrics struct {
	requests         atomic.Uint64
	figureRequests   atomic.Uint64
	figureErrors     atomic.Uint64
	compareRequests  atomic.Uint64
	snapshotRequests atomic.Uint64
	cacheHits        atomic.Uint64
	cacheMisses      atomic.Uint64
	panics           atomic.Uint64
	reloads          atomic.Uint64
	reloadErrors     atomic.Uint64
	streamsTotal     atomic.Uint64
	streamRows       atomic.Uint64
	streamsCanceled  atomic.Uint64
}

// registerMetrics wires every server-level series into the registry.
// Values are read through callbacks at render time, so /metrics is
// always current and rendering never holds a server lock across a
// network write.
func (s *Server) registerMetrics() {
	reg := s.reg
	reg.Counter("sanserve_requests_total", nil, s.met.requests.Load)
	reg.Counter("sanserve_figure_requests_total", nil, s.met.figureRequests.Load)
	reg.Counter("sanserve_figure_errors_total", nil, s.met.figureErrors.Load)
	reg.Counter("sanserve_compare_requests_total", nil, s.met.compareRequests.Load)
	reg.Counter("sanserve_snapshot_requests_total", nil, s.met.snapshotRequests.Load)
	reg.Counter("sanserve_result_cache_hits_total", nil, s.met.cacheHits.Load)
	reg.Counter("sanserve_result_cache_misses_total", nil, s.met.cacheMisses.Load)
	reg.Counter("sanserve_panics_total", nil, s.met.panics.Load)
	reg.Gauge("sanserve_result_cache_entries", nil, func() float64 { return float64(s.cache.Len()) })
	reg.Gauge("sanserve_timelines", nil, func() float64 {
		s.mu.RLock()
		n := len(s.mounts)
		s.mu.RUnlock()
		return float64(n)
	})

	// Admission control: the cold-build gate.  shed_total is the
	// headline overload signal — every 429 the gate caused.
	reg.Counter("sanserve_shed_total", nil, s.gate.Shed)
	reg.Counter("sanserve_builds_admitted_total", nil, s.gate.Admitted)
	reg.Gauge("sanserve_builds_inflight", nil, func() float64 { return float64(s.gate.InFlight()) })
	reg.Gauge("sanserve_max_builds", nil, func() float64 { return float64(s.gate.Cap()) })

	// Hot reload: successful table swaps and failed attempts (a
	// failure keeps the previous mounts serving).
	reg.Counter("sanserve_reloads_total", nil, s.met.reloads.Load)
	reg.Counter("sanserve_reload_errors_total", nil, s.met.reloadErrors.Load)

	// Streaming: lifetime stream count, rows emitted, walks ended by
	// cancellation (client disconnect or server drain), and the gauge of
	// streams currently in flight — a stream stays active until its
	// handler unwinds, so drains are observable on /metrics.
	reg.Counter("sanserve_streams_total", nil, s.met.streamsTotal.Load)
	reg.Counter("sanserve_stream_rows_total", nil, s.met.streamRows.Load)
	reg.Counter("sanserve_streams_canceled_total", nil, s.met.streamsCanceled.Load)
	reg.Gauge("sanserve_streams_active", nil, func() float64 { return float64(s.ActiveStreams()) })

	// The async analytics pipeline: folded rows and the explicit
	// overload drop counter (request recording never blocks).
	reg.Counter("sanserve_analytics_recorded_total", nil, s.rec.Recorded)
	reg.Counter("sanserve_analytics_dropped_total", nil, s.rec.Dropped)

	// Simulation / dataset-build progress (the obs.Progress every
	// mount's fold walk and any model simulation report through).
	reg.Gauge("sanserve_sim_days_total", nil, func() float64 { return float64(s.simProg.Days()) })
	reg.Gauge("sanserve_sim_nodes_total", nil, func() float64 { return float64(s.simProg.Nodes()) })
	reg.Gauge("sanserve_sim_links_total", nil, func() float64 { return float64(s.simProg.Links()) })
	reg.Gauge("sanserve_sim_deltas_total", nil, func() float64 { return float64(s.simProg.Deltas()) })
	reg.Gauge("sanserve_sim_packed_bytes_total", nil, func() float64 { return float64(s.simProg.Bytes()) })

	// Resident set size, sampled at scrape time: pairs with the packed-
	// bytes gauge to show that streaming packs hold memory flat while
	// output grows.
	reg.Gauge("sanserve_process_rss_bytes", nil, func() float64 { return float64(obs.CurrentRSS()) })
}

// registerQuantileGauges exports p50/p95/p99 summary gauges for one
// endpoint's latency histogram; the Recorder calls it the first time
// an endpoint appears in the audit stream.
func (s *Server) registerQuantileGauges(endpoint string, h *obs.Histogram) {
	for _, q := range []struct {
		label string
		q     float64
	}{{"0.5", 0.50}, {"0.95", 0.95}, {"0.99", 0.99}} {
		q := q
		s.reg.Gauge("sanserve_request_latency_seconds",
			obs.Labels{"endpoint": endpoint, "quantile": q.label},
			func() float64 { return h.Quantile(q.q) })
	}
}

// tableHitsFor returns the snapshot-table read counters of mounts
// named name, registering their sanserve_store_hits_total series (by
// timeline and source) the first time such a mount is built, so a
// reload keeps the series monotone.  Every day is recorded at mount
// time, so each read is a hit and there is no miss series; perfbench's
// hot-serve store hit ratio reads this counter.
func (s *Server) tableHitsFor(name string) *[2]atomic.Uint64 {
	c, loaded := s.tableHits.LoadOrStore(name, new([2]atomic.Uint64))
	hits := c.(*[2]atomic.Uint64)
	if !loaded {
		for i, src := range []string{"full", "view"} {
			s.reg.Counter("sanserve_store_hits_total", obs.Labels{"timeline": name, "source": src}, hits[i].Load)
		}
	}
	return hits
}

// handleMetrics renders the registry in the Prometheus text
// exposition format.  All state is read through registered callbacks
// (snapshotted value by value), so no server lock is ever held across
// a write to the response.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.reg.WritePrometheus(w)
}

// endpointOf classifies a request path into the bounded endpoint label
// set of the per-endpoint latency histograms, and extracts the figure
// ID for audit rows where one is present.
func endpointOf(path string) (endpoint, figure string) {
	switch {
	case path == "/healthz":
		return "healthz", ""
	case path == "/metrics":
		return "metrics", ""
	case path == "/v1/timelines":
		return "timelines", ""
	case path == "/v1/scenarios":
		return "scenarios", ""
	case strings.HasPrefix(path, "/v1/figures/"):
		return "figures", path[len("/v1/figures/"):]
	case strings.HasPrefix(path, "/v1/compare/"):
		return "compare", path[len("/v1/compare/"):]
	case strings.HasPrefix(path, "/v1/stream/"):
		return "stream", ""
	case path == "/v1/snapshots/stats":
		return "stats_sweep", ""
	case path == "/v1/admin/reload":
		return "admin_reload", ""
	case strings.HasPrefix(path, "/v1/snapshots/"):
		return "snapshot_stats", ""
	default:
		return "other", ""
	}
}

// statusWriter captures the response status for the access log and
// audit row; an unset status means an implicit 200 from the first
// Write.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.NewResponseController reach the underlying writer's
// Flush through this wrapper (the stream handler flushes per record).
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }
