package sanserve

import (
	"bufio"
	"bytes"
	"log/slog"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// expositionLine is the Prometheus text exposition grammar for one
// sample line: metric name, optional sorted label set, float value.
var expositionLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*")*\})? ` +
		`(NaN|[+-]?Inf|[+-]?[0-9]*\.?[0-9]+([eE][+-]?[0-9]+)?)$`)

// scrape fetches /metrics and returns every parsed line as
// series -> value, failing the test on any grammar violation.
func scrape(t *testing.T, s *Server) map[string]float64 {
	t.Helper()
	rec := get(t, s.Handler(), "/metrics")
	if rec.Code != 200 {
		t.Fatalf("/metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	vals := map[string]float64{}
	for sc := bufio.NewScanner(bytes.NewReader(rec.Body.Bytes())); sc.Scan(); {
		line := sc.Text()
		if !expositionLine.MatchString(line) {
			t.Fatalf("line violates exposition grammar: %q", line)
		}
		name, raw, _ := strings.Cut(line, " ")
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		if _, dup := vals[name]; dup {
			t.Fatalf("duplicate series %q", name)
		}
		vals[name] = v
	}
	return vals
}

// TestMetricsExpositionFormat pins the /metrics contract: every line
// parses under the Prometheus text grammar, the per-endpoint latency
// histogram and its p50/p95/p99 summary gauges appear once requests
// flow, and counters are monotone across scrapes.
func TestMetricsExpositionFormat(t *testing.T) {
	s := newTestServer(t, Options{})
	defer s.Close()
	h := s.Handler()

	get(t, h, "/v1/figures/2")
	get(t, h, "/v1/figures/2")
	get(t, h, "/healthz")
	s.Analytics().Drain()
	first := scrape(t, s)

	for _, want := range []string{
		`sanserve_request_duration_seconds_bucket{endpoint="figures",le="+Inf"}`,
		`sanserve_request_duration_seconds_sum{endpoint="figures"}`,
		`sanserve_request_duration_seconds_count{endpoint="figures"}`,
		`sanserve_request_latency_seconds{endpoint="figures",quantile="0.5"}`,
		`sanserve_request_latency_seconds{endpoint="figures",quantile="0.95"}`,
		`sanserve_request_latency_seconds{endpoint="figures",quantile="0.99"}`,
		`sanserve_request_duration_seconds_count{endpoint="healthz"}`,
		"sanserve_analytics_recorded_total",
		"sanserve_analytics_dropped_total",
		"sanserve_sim_days_total",
	} {
		if _, ok := first[want]; !ok {
			t.Errorf("metrics missing series %q", want)
		}
	}
	if n := first[`sanserve_request_duration_seconds_count{endpoint="figures"}`]; n != 2 {
		t.Errorf("figures histogram count = %g, want 2", n)
	}
	// Cumulative bucket counts must be non-decreasing in le order and
	// end at the count; spot-check via +Inf == count.
	inf := first[`sanserve_request_duration_seconds_bucket{endpoint="figures",le="+Inf"}`]
	if inf != first[`sanserve_request_duration_seconds_count{endpoint="figures"}`] {
		t.Errorf("+Inf bucket %g != count", inf)
	}

	// More traffic, then re-scrape: every *_total counter is monotone.
	for i := 0; i < 5; i++ {
		get(t, h, "/v1/figures/2")
	}
	s.Analytics().Drain()
	second := scrape(t, s)
	for name, v1 := range first {
		if !strings.Contains(name, "_total") {
			continue
		}
		if v2, ok := second[name]; !ok || v2 < v1 {
			t.Errorf("counter %s not monotone: %g -> %g (present %v)", name, v1, v2, ok)
		}
	}
	if second["sanserve_requests_total"] <= first["sanserve_requests_total"] {
		t.Error("request counter did not advance")
	}
}

// TestCacheHitHeaderAndAudit pins the audit row content: X-Cache
// distinguishes the cold computation from the byte-copy, and the
// NDJSON sink receives one structured row per request with the
// figure, day range and latency recorded.
func TestCacheHitHeaderAndAudit(t *testing.T) {
	var sink bytes.Buffer
	s := newTestServer(t, Options{AuditSink: &sink})
	defer s.Close()
	h := s.Handler()

	if rec := get(t, h, "/v1/figures/2?days=3-5"); rec.Header().Get("X-Cache") != "miss" {
		t.Errorf("first request X-Cache = %q, want miss", rec.Header().Get("X-Cache"))
	}
	if rec := get(t, h, "/v1/figures/2?days=3-5"); rec.Header().Get("X-Cache") != "hit" {
		t.Errorf("repeat request X-Cache = %q, want hit", rec.Header().Get("X-Cache"))
	}
	s.Analytics().Drain()

	lines := strings.Split(strings.TrimSpace(sink.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("audit rows = %d, want 2: %q", len(lines), sink.String())
	}
	for _, want := range []string{`"endpoint":"figures"`, `"figure":"2"`, `"day_range":"3-5"`, `"cache_hit":false`, `"status":200`, `"request_id":`} {
		if !strings.Contains(lines[0], want) {
			t.Errorf("first audit row missing %s: %s", want, lines[0])
		}
	}
	if !strings.Contains(lines[1], `"cache_hit":true`) {
		t.Errorf("second audit row should be a cache hit: %s", lines[1])
	}
	if h := s.Analytics().EndpointHistogram("figures"); h == nil || h.Count() != 2 {
		t.Fatalf("figures latency histogram not folded: %+v", h)
	}
}

// wedgedWriter blocks its first Write until released — a stalled
// audit sink that would back the whole pipeline up.
type wedgedWriter struct {
	release chan struct{}
	wrote   chan struct{}
	once    sync.Once
}

func (w *wedgedWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.wrote) })
	<-w.release
	return len(p), nil
}

// TestRequestPathNeverBlocksUnderOverload is the overload proof at the
// server level: with a 1-row analytics buffer and the audit sink
// wedged mid-write, every request must still complete promptly and
// the overflow must show up in sanserve_analytics_dropped_total.
func TestRequestPathNeverBlocksUnderOverload(t *testing.T) {
	ww := &wedgedWriter{release: make(chan struct{}), wrote: make(chan struct{})}
	s := newTestServer(t, Options{
		AuditSink:       ww,
		AnalyticsBuffer: 1,
		FlushInterval:   time.Millisecond,
	})
	h := s.Handler()

	// Wedge the worker inside the sink, then flood the request path.
	get(t, h, "/healthz")
	<-ww.wrote

	const burst = 300
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < burst; i++ {
			if rec := get(t, h, "/v1/figures/2"); rec.Code != 200 {
				t.Errorf("request %d: %d", i, rec.Code)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("request path blocked while analytics pipeline was wedged")
	}
	if s.Analytics().Dropped() == 0 {
		t.Fatal("overload produced no analytics drops")
	}
	vals := scrape(t, s)
	if vals["sanserve_analytics_dropped_total"] == 0 {
		t.Fatal("sanserve_analytics_dropped_total not exported")
	}
	close(ww.release)
	s.Close()
	if rec, d := s.Analytics().Recorded(), s.Analytics().Dropped(); rec+d < burst {
		t.Errorf("recorded %d + dropped %d < %d requests", rec, d, burst)
	}
}

// TestStructuredAccessLog pins the slog wiring: one Info line per
// request with request ID, path and status.
func TestStructuredAccessLog(t *testing.T) {
	var buf bytes.Buffer
	logger := obs.NewLogger(&buf, "text", slog.LevelInfo)
	s := newTestServer(t, Options{Logger: logger})
	defer s.Close()
	get(t, s.Handler(), "/healthz")
	out := buf.String()
	for _, want := range []string{"msg=request", "path=/healthz", "status=200", "id="} {
		if !strings.Contains(out, want) {
			t.Errorf("access log missing %q: %s", want, out)
		}
	}
}
