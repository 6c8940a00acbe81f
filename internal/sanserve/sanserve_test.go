package sanserve

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/experiments"
	"repro/internal/gplus"
	"repro/internal/snapstore"
)

// Tiny shared timelines: one short, small-scale gplus run packed as
// full and crawl-view timelines, built once for the whole package.
var (
	tlOnce         sync.Once
	tlFull, tlView *snapstore.Timeline
)

func testTimelines(t *testing.T) (*snapstore.Timeline, *snapstore.Timeline) {
	t.Helper()
	tlOnce.Do(func() {
		cfg := gplus.DefaultConfig()
		cfg.DailyBase = 6
		cfg.Days = 12
		cfg.Seed = 7
		var err error
		if tlFull, tlView, err = gplus.New(cfg).RunTimelines(nil); err != nil {
			t.Fatalf("packing timelines: %v", err)
		}
	})
	return tlFull, tlView
}

// testConfig keeps model-figure generation tiny so serving every
// registry ID stays fast.
func testConfig() experiments.Config {
	return experiments.Config{Scale: 20, ModelT: 400, Seed: 7, DiamEvery: 6, HLLBits: 5}
}

func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	full, view := testTimelines(t)
	if opts.Cfg == (experiments.Config{}) {
		opts.Cfg = testConfig()
	}
	s := New(opts)
	if err := s.Mount("gplus", full, view); err != nil {
		t.Fatal(err)
	}
	return s
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

func TestHealthzAndTimelines(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.Handler()

	rec := get(t, h, "/healthz")
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"ok"`) {
		t.Fatalf("healthz: %d %s", rec.Code, rec.Body.String())
	}

	rec = get(t, h, "/v1/timelines")
	var resp struct {
		Timelines []TimelineInfo `json:"timelines"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Timelines) != 1 || resp.Timelines[0].Name != "gplus" || resp.Timelines[0].Days != 12 {
		t.Fatalf("timelines: %+v", resp.Timelines)
	}
	if resp.Timelines[0].SameView {
		t.Error("full and view are distinct timelines")
	}
}

func TestFigureOverHTTP(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.Handler()

	rec := get(t, h, "/v1/figures/2")
	if rec.Code != 200 {
		t.Fatalf("figure 2: %d %s", rec.Code, rec.Body.String())
	}
	var fig FigureResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &fig); err != nil {
		t.Fatal(err)
	}
	if fig.ID != "fig2" || fig.Timeline != "gplus" || len(fig.Series) != 2 {
		t.Fatalf("figure payload: %+v", fig)
	}
	if len(fig.Series[0].X) != 12 {
		t.Fatalf("want 12 days of growth, got %d", len(fig.Series[0].X))
	}

	// Day-range restriction clips day-indexed series.
	rec = get(t, h, "/v1/figures/2?days=3-5")
	var clipped FigureResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &clipped); err != nil {
		t.Fatal(err)
	}
	if len(clipped.Series[0].X) != 3 || clipped.Series[0].X[0] != 3 {
		t.Fatalf("clipped series: %+v", clipped.Series[0])
	}

	// gob encoding round-trips the same payload.
	rec = get(t, h, "/v1/figures/2?format=gob")
	if rec.Code != 200 || rec.Header().Get("Content-Type") != "application/x-gob" {
		t.Fatalf("gob figure: %d %s", rec.Code, rec.Header().Get("Content-Type"))
	}
	var gofig FigureResponse
	if err := gob.NewDecoder(bytes.NewReader(rec.Body.Bytes())).Decode(&gofig); err != nil {
		t.Fatal(err)
	}
	if gofig.ID != fig.ID || len(gofig.Series) != len(fig.Series) {
		t.Fatalf("gob payload diverges: %+v", gofig)
	}
}

// TestAllRegistryFiguresServed is the serving counterpart of the
// experiments registry test: every figure ID must be answerable over
// HTTP from the mounted (packed) timelines, with no simulation of the
// dataset.
func TestAllRegistryFiguresServed(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.Handler()
	for _, id := range experiments.IDs() {
		rec := get(t, h, "/v1/figures/"+id)
		if rec.Code != 200 {
			t.Fatalf("figure %s: %d %s", id, rec.Code, rec.Body.String())
		}
		var fig FigureResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &fig); err != nil {
			t.Fatalf("figure %s: %v", id, err)
		}
		if fig.ID == "" || fig.Title == "" {
			t.Errorf("figure %s: missing metadata", id)
		}
		if len(fig.Series) == 0 && len(fig.Notes) == 0 {
			t.Errorf("figure %s: empty payload", id)
		}
	}
}

// TestConcurrentRequestsComputeOnce pins the result cache's
// single-flight behavior: many concurrent identical requests must
// invoke the figure driver exactly once and all receive the same
// bytes.
func TestConcurrentRequestsComputeOnce(t *testing.T) {
	s := newTestServer(t, Options{})
	var invocations atomic.Int64
	s.runFigure = func(id string, ds *experiments.Dataset) (experiments.Figure, error) {
		invocations.Add(1)
		return experiments.RunOn(id, ds)
	}
	h := s.Handler()

	const clients = 64
	bodies := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/figures/4?timeline=gplus", nil))
			if rec.Code == 200 {
				bodies[i] = rec.Body.String()
			}
		}(i)
	}
	wg.Wait()

	if got := invocations.Load(); got != 1 {
		t.Fatalf("driver invoked %d times under concurrent load, want 1", got)
	}
	for i, b := range bodies {
		if b == "" {
			t.Fatalf("client %d got a non-200 response", i)
		}
		if b != bodies[0] {
			t.Fatalf("client %d got different bytes", i)
		}
	}
	// A later identical request is a pure cache hit: still one
	// driver invocation.
	if rec := get(t, h, "/v1/figures/4?timeline=gplus"); rec.Code != 200 {
		t.Fatal("repeat request failed")
	}
	if got := invocations.Load(); got != 1 {
		t.Fatalf("driver re-invoked on cache hit: %d", got)
	}
}

// TestPanickingDriverDoesNotWedgeCache pins the panic path: a driver
// panic must release single-flight waiters and leave no cache entry,
// so retries get a fresh 500 instead of hanging forever.
func TestPanickingDriverDoesNotWedgeCache(t *testing.T) {
	s := newTestServer(t, Options{})
	s.runFigure = func(id string, ds *experiments.Dataset) (experiments.Figure, error) {
		panic("boom")
	}
	h := s.Handler()
	for i := 0; i < 2; i++ {
		rec := get(t, h, "/v1/figures/2") // the second request must not block
		if rec.Code != 500 {
			t.Fatalf("request %d: got %d, want 500", i, rec.Code)
		}
	}
	if n := s.cache.Len(); n != 0 {
		t.Errorf("panicked computations occupy %d cache slots", n)
	}
}

// TestFullRangeEqualsUnranged pins the cache-key normalization: a day
// range covering the whole timeline is the same query as no range, so
// distribution figures (X = degree, not day) are never clipped by it.
func TestFullRangeEqualsUnranged(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.Handler()
	ranged := get(t, h, "/v1/figures/5?days=1-12")
	plain := get(t, h, "/v1/figures/5")
	if ranged.Code != 200 || plain.Code != 200 {
		t.Fatalf("codes: %d %d", ranged.Code, plain.Code)
	}
	if ranged.Body.String() != plain.Body.String() {
		t.Error("full-range and unranged requests must serve identical bytes")
	}
	var fig FigureResponse
	if err := json.Unmarshal(ranged.Body.Bytes(), &fig); err != nil {
		t.Fatal(err)
	}
	// Fig5's X values are degrees; a whole-timeline "range" must not
	// have dropped any points (degree 0 or degrees above numDays).
	if len(fig.Series) == 0 || len(fig.Series[0].X) == 0 {
		t.Fatalf("degree distribution clipped: %+v", fig.Series)
	}
}

func TestSnapshotStats(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.Handler()
	full, _ := testTimelines(t)

	rec := get(t, h, "/v1/snapshots/12/stats?source=full")
	if rec.Code != 200 {
		t.Fatalf("stats: %d %s", rec.Code, rec.Body.String())
	}
	var st SnapshotStats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	g, err := full.ReconstructAt(11)
	if err != nil {
		t.Fatal(err)
	}
	want := g.Stats()
	if st.SocialNodes != want.SocialNodes || st.SocialLinks != want.SocialLinks ||
		st.Reciprocity != g.Reciprocity() {
		t.Fatalf("served stats %+v disagree with reconstruction %+v", st, want)
	}

	// Sweep returns one record per day in order, computed by one
	// forward walk.
	rec = get(t, h, "/v1/snapshots/stats?days=2-7&source=view")
	var sweep struct {
		Stats []SnapshotStats `json:"stats"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &sweep); err != nil {
		t.Fatal(err)
	}
	if len(sweep.Stats) != 6 || sweep.Stats[0].Day != 2 || sweep.Stats[5].Day != 7 {
		t.Fatalf("sweep: %+v", sweep.Stats)
	}
	for i := 1; i < len(sweep.Stats); i++ {
		if sweep.Stats[i].SocialNodes < sweep.Stats[i-1].SocialNodes {
			t.Fatal("social nodes must grow day over day")
		}
	}
}

func TestErrorPaths(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.Handler()
	for _, tc := range []struct {
		path string
		code int
	}{
		{"/v1/figures/nope", 404},
		{"/v1/figures/2?timeline=ghost", 404},
		{"/v1/figures/2?days=0-99", 400},
		{"/v1/figures/2?days=bogus", 400},
		{"/v1/figures/2?format=xml", 400},
		{"/v1/snapshots/99/stats", 400},
		{"/v1/snapshots/12/stats?source=half", 400},
	} {
		if rec := get(t, h, tc.path); rec.Code != tc.code {
			t.Errorf("%s: got %d, want %d (%s)", tc.path, rec.Code, tc.code, rec.Body.String())
		}
	}
	// Errors are not cached: a failed figure lookup leaves no entry.
	if n := s.cache.Len(); n != 0 {
		t.Errorf("error responses occupy %d cache slots", n)
	}
}

func TestResultCacheBound(t *testing.T) {
	s := newTestServer(t, Options{CacheEntries: 2})
	h := s.Handler()
	for _, id := range []string{"2", "3", "7b", "8"} {
		if rec := get(t, h, "/v1/figures/"+id); rec.Code != 200 {
			t.Fatalf("figure %s: %d", id, rec.Code)
		}
	}
	if n := s.cache.Len(); n > 2 {
		t.Fatalf("result cache holds %d entries, bound is 2", n)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.Handler()
	get(t, h, "/v1/figures/2")
	get(t, h, "/v1/figures/2")
	rec := get(t, h, "/metrics")
	body := rec.Body.String()
	for _, want := range []string{
		"sanserve_requests_total",
		"sanserve_figure_requests_total 2",
		"sanserve_result_cache_hits_total 1",
		"sanserve_result_cache_misses_total 1",
		"sanserve_analytics_dropped_total",
		`sanserve_store_hits_total{source="full",timeline="gplus"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q:\n%s", want, body)
		}
	}
}

func TestMountValidation(t *testing.T) {
	full, view := testTimelines(t)
	s := New(Options{Cfg: testConfig()})
	if err := s.Mount("bad name", full, view); err == nil {
		t.Error("mount name with a space must be rejected")
	}
	if err := s.Mount("a", nil, nil); err == nil {
		t.Error("nil timeline must be rejected")
	}
	if err := s.Mount("a", full, view); err != nil {
		t.Fatal(err)
	}
	if err := s.Mount("a", full, view); err == nil {
		t.Error("duplicate mount must be rejected")
	}
	// Multiple mounts require an explicit ?timeline=.
	if err := s.Mount("b", full, nil); err != nil {
		t.Fatal(err)
	}
	if rec := get(t, s.Handler(), "/v1/figures/2"); rec.Code != 404 {
		t.Errorf("ambiguous mount resolution: got %d, want 404", rec.Code)
	}
	if rec := get(t, s.Handler(), "/v1/figures/2?timeline=b"); rec.Code != 200 {
		t.Errorf("explicit timeline: got %d", rec.Code)
	}
}
