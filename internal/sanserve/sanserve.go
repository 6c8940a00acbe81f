// Package sanserve is the serving layer of the reproduction: an HTTP
// service that mounts packed snapstore timelines and answers figure
// and snapshot-statistic queries on demand.
//
// Queries never re-simulate.  A mounted timeline is wrapped in an
// experiments.Dataset built from injected snapshots
// (experiments.NewTimelineDataset), snapshot statistics are read from
// the per-day table the mount's validation walk records, and finished
// figure encodings are kept in a
// bounded result cache keyed on (timeline, figure, day-range, format)
// with single-flight de-duplication, so concurrent identical requests
// compute once and every later repeat is a byte-copy.
//
// Endpoints:
//
//	GET /healthz                        liveness + mount count
//	GET /metrics                        Prometheus-style counters
//	GET /v1/timelines                   list mounted timelines
//	GET /v1/scenarios                   list mounts with sweep provenance (manifest)
//	GET /v1/figures/{id}                run one registry experiment
//	    ?timeline=NAME                  mount to query (optional with one mount)
//	    ?day=N | ?days=LO-HI            restrict day-indexed series (1-based)
//	    ?format=json|gob                response encoding (default json)
//	GET /v1/compare/{id}                one figure across several scenarios
//	    ?scenarios=A,B,C                mounts to compare (default: all)
//	GET /v1/snapshots/{day}/stats       headline metrics of one day
//	    ?timeline=NAME&source=full|view
//	GET /v1/snapshots/stats?days=LO-HI  per-day stats over a day range
//	    ?timeline=NAME&source=full|view
//
// A scenario-sweep workspace (see internal/scenario and `sangen
// sweep`) mounts in one call: MountWorkspace reads the manifest and
// mounts every run under its scenario name, so a single service
// instance answers baseline and counterfactual queries side by side.
package sanserve

import (
	"cmp"
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/san"
	"repro/internal/scenario"
	"repro/internal/snapstore"
)

// Options configures a Server.
type Options struct {
	// Cfg supplies the experiment scale parameters (seeds, estimator
	// precision, model sizes).  Day metrics are measured from the
	// mounted timelines; Cfg.Scale only affects drivers that generate
	// their own model SANs (figures 15-19).
	Cfg experiments.Config

	// CacheEntries bounds the figure result cache (default 256).
	CacheEntries int

	// Logger receives the structured access log and lifecycle events
	// (default: discard).  Per-request lines log at Info with a
	// request ID shared with the audit row.
	Logger *slog.Logger

	// AuditSink, when non-nil, receives one NDJSON audit row per
	// request from the async Recorder (see cmd/sanserve -audit).
	AuditSink io.Writer

	// AnalyticsBuffer bounds the Recorder's pending-row channel
	// (default 1024); overflow is dropped and counted, never waited
	// out on the request path.
	AnalyticsBuffer int

	// FlushInterval forces periodic audit-sink flushes (default 1s).
	FlushInterval time.Duration

	// MaxBuilds bounds concurrent uncached figure builds (the
	// admission gate).  Excess cold requests are shed with 429 +
	// Retry-After instead of queueing behind the driver pool, so
	// cached traffic stays fast under cold bursts.  0 = unlimited
	// (admissions are still counted for the builds_* metrics).  One
	// admitted build may use every core: the dataset fold and the
	// model figures fan their independent work out to GOMAXPROCS.
	MaxBuilds int

	// RetryAfter is the Retry-After hint attached to shed responses
	// (default 1s, rounded up to whole seconds on the wire).
	RetryAfter time.Duration

	// StreamHeartbeat is the idle-heartbeat interval of /v1/stream
	// responses (default 10s): a stream that has not emitted a row for
	// this long writes a {"heartbeat":true} record so proxies and
	// clients can distinguish a slow walk (live tail, paced replay)
	// from a dead connection.  Negative disables heartbeats.
	StreamHeartbeat time.Duration
}

// Server answers figure and snapshot queries for a set of mounted
// timelines.  Mount before serving, or concurrently — the mount table
// is lock-protected.
type Server struct {
	opts    Options
	mux     *http.ServeMux
	cache   *resultCache
	met     serverMetrics
	reg     *obs.Registry
	rec     *obs.Recorder
	logger  *slog.Logger
	simProg *obs.Progress
	gate    *obs.Gate // admission control for uncached figure builds

	// mountGen issues a unique generation to every *Mount ever built;
	// cache keys carry it, so a swapped-out mount's entries become
	// unreachable the moment the table swaps (see cacheKey).
	mountGen atomic.Uint64

	mu sync.RWMutex
	// mounts is copy-on-write under reload: readers hold RLock only
	// long enough to resolve a *Mount, which is immutable thereafter.
	mounts map[string]*Mount

	// reloadMu serializes ReloadWorkspace/MountWorkspace; s.mu is
	// never held across the snapstore I/O they do.
	reloadMu     sync.Mutex
	workspaceDir string // set by MountWorkspace; "" = no workspace

	// loadTimelines loads one run's timeline pair from the workspace;
	// tests override it to inject slow or failing loads.
	loadTimelines func(dir string, run scenario.Run) (full, view *snapstore.Timeline, err error)

	// runFigure dispatches into the experiments registry; tests
	// override it to count driver invocations.
	runFigure func(id string, ds *experiments.Dataset) (experiments.Figure, error)

	// streams tracks every in-flight /v1/stream response by its cancel
	// function, so DrainStreams can end them with a terminal record and
	// wait for the handlers to unwind (see stream.go).
	streamMu sync.Mutex
	streams  map[*streamHandle]struct{}

	// tableHits maps a mount name to its snapshot-table read counters
	// (see tableHitsFor); entries outlive reloads.
	tableHits sync.Map
}

// Mount is one served timeline pair: the full SAN sequence and the
// crawl view (which may share one timeline for single-file mounts).
type Mount struct {
	Name string
	Full *snapstore.Timeline
	View *snapstore.Timeline

	// Run carries sweep provenance (seed, config digest, pack stats)
	// for mounts loaded from a scenario workspace; nil otherwise.
	Run *scenario.Run

	// gen is this mount's unique cache generation; digest is the
	// run's ContentDigest for workspace mounts ("" otherwise), the
	// change detector hot reload diffs against a re-read manifest.
	gen    uint64
	digest string

	// rows, fullStats and viewStats hold each day's /v1/stream summary
	// and /v1/snapshots stats, recorded by recordDays; hits counts the
	// stats records served, full then view.
	rows      []StreamRecord
	fullStats []SnapshotStats
	viewStats []SnapshotStats
	hits      *[2]atomic.Uint64
	ds        *experiments.Dataset

	// live, when non-nil, marks a live mount (MountLive): a timeline
	// still being produced by a running simulation.  Live mounts serve
	// only /v1/stream — Full/View/ds/tables are nil, since figures and
	// snapshots need a finished, validated timeline.
	live *snapstore.Live
}

// IsLive reports whether this mount tails a still-producing timeline.
func (m *Mount) IsLive() bool { return m.live != nil }

// errLiveMount is the rejection every non-stream endpoint gives a live
// mount.
func errLiveMount(name string) string {
	return fmt.Sprintf("timeline %q is live (still being produced); only /v1/stream serves it", name)
}

// New returns a Server with no mounts.
func New(opts Options) *Server {
	if opts.CacheEntries <= 0 {
		opts.CacheEntries = 256
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = time.Second
	}
	if opts.StreamHeartbeat == 0 {
		opts.StreamHeartbeat = 10 * time.Second
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	s := &Server{
		opts:          opts,
		mux:           http.NewServeMux(),
		cache:         newResultCache(opts.CacheEntries),
		reg:           obs.NewRegistry(),
		logger:        logger,
		simProg:       obs.NewProgress("sanserve-datasets"),
		gate:          obs.NewGate(opts.MaxBuilds),
		mounts:        map[string]*Mount{},
		streams:       map[*streamHandle]struct{}{},
		loadTimelines: scenario.Timelines,
		runFigure:     experiments.RunOn,
	}
	// Dataset builds forced by this server (fold walks on first touch,
	// model simulations) report through the shared progress counters,
	// surfaced as sanserve_sim_* gauges.
	s.opts.Cfg.Progress = s.simProg
	s.rec = obs.NewRecorder(obs.RecorderOptions{
		Buffer:        opts.AnalyticsBuffer,
		FlushInterval: opts.FlushInterval,
		Sink:          opts.AuditSink,
		Registry:      s.reg,
		HistogramName: "sanserve_request_duration_seconds",
		OnEndpoint:    s.registerQuantileGauges,
	})
	s.registerMetrics()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/timelines", s.handleTimelines)
	s.mux.HandleFunc("GET /v1/scenarios", s.handleScenarios)
	s.mux.HandleFunc("GET /v1/figures/{id}", s.handleFigure)
	s.mux.HandleFunc("GET /v1/compare/{id}", s.handleCompare)
	s.mux.HandleFunc("GET /v1/snapshots/{day}/stats", s.handleSnapshotStats)
	s.mux.HandleFunc("GET /v1/snapshots/stats", s.handleStatsSweep)
	s.mux.HandleFunc("GET /v1/stream/{timeline}", s.handleStream)
	s.mux.HandleFunc("POST /v1/admin/reload", s.handleReload)
	return s
}

// Mount adds a timeline pair under name.  view may be nil to serve
// full in both roles.  Both timelines are validated by a walk that
// decodes every delta, so corrupt files are rejected here instead of
// failing mid-request.
func (s *Server) Mount(name string, full, view *snapstore.Timeline) error {
	return s.mount(name, full, view, nil)
}

func (s *Server) mount(name string, full, view *snapstore.Timeline, run *scenario.Run) error {
	m, err := s.buildMount(name, full, view, run)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if _, ok := s.mounts[name]; ok {
		s.mu.Unlock()
		return fmt.Errorf("sanserve: mount %q already exists", name)
	}
	s.mounts[name] = m
	s.mu.Unlock()
	return nil
}

// buildMount does all the expensive mount work — validation by
// recordDays (which decodes every delta, so corrupt files are rejected
// here instead of failing mid-request) and dataset construction —
// WITHOUT taking any server lock.  The returned *Mount
// is immutable and carries a fresh cache generation; callers insert
// it into the table under a brief s.mu.Lock (mount, swap in
// ReloadWorkspace).
func (s *Server) buildMount(name string, full, view *snapstore.Timeline, run *scenario.Run) (*Mount, error) {
	if name == "" || strings.ContainsAny(name, " /?&=") {
		return nil, fmt.Errorf("sanserve: invalid mount name %q", name)
	}
	sp := obs.StartSpan(s.logger, "mount", "name", name)
	if full == nil || full.NumDays() == 0 {
		return nil, fmt.Errorf("sanserve: mount %q: empty timeline", name)
	}
	if view == nil {
		view = full
	}
	if view.NumDays() != full.NumDays() {
		return nil, fmt.Errorf("sanserve: mount %q: full has %d days but view has %d",
			name, full.NumDays(), view.NumDays())
	}
	rows, fullStats, viewStats, err := recordDays(name, full, view)
	if err != nil {
		return nil, fmt.Errorf("sanserve: mount %q: %w", name, err)
	}
	m := &Mount{
		Name:      name,
		Full:      full,
		View:      view,
		Run:       run,
		gen:       s.mountGen.Add(1),
		rows:      rows,
		fullStats: fullStats,
		viewStats: viewStats,
		hits:      s.tableHitsFor(name),
		ds:        experiments.NewTimelineDataset(s.opts.Cfg, full, view),
	}
	if run != nil {
		m.digest = run.ContentDigest()
	}
	sp.End()
	return m, nil
}

// recordDays walks full and, unless it is full, view through cursors
// that decode every delta, and returns each day's stream summary and
// the snapshot stats of both roles.  The two walks run concurrently.
// A decode error names the timeline's role; when both walks fail, the
// full walk's error is returned.
func recordDays(name string, full, view *snapstore.Timeline) (rows []StreamRecord, fullStats, viewStats []SnapshotStats, err error) {
	walk := func(tl *snapstore.Timeline, role string) ([]StreamRecord, []SnapshotStats, error) {
		cur, err := snapstore.OpenCursorN([]*snapstore.Timeline{tl})
		if err != nil {
			return nil, nil, err
		}
		rows := make([]StreamRecord, tl.NumDays())
		stats := make([]SnapshotStats, tl.NumDays())
		for {
			day, gs, ds, err := cur.Next(context.Background())
			if err == snapstore.ErrDone {
				return rows, stats, nil
			}
			if err != nil {
				return nil, nil, fmt.Errorf("%s timeline: %w", role, err)
			}
			rows[day] = dayRecord(day+1, ds[0], gs[0])
			stats[day] = snapshotStats(name, day+1, role, gs[0])
		}
	}
	if view == full {
		if rows, fullStats, err = walk(full, "full"); err != nil {
			return nil, nil, nil, err
		}
		viewStats = slices.Clone(fullStats)
		for day := range viewStats {
			viewStats[day].Source = "view"
		}
		return rows, fullStats, viewStats, nil
	}
	var vrows []StreamRecord
	var verr error
	par.Do(func() { rows, fullStats, err = walk(full, "full") },
		func() { vrows, viewStats, verr = walk(view, "view") })
	if err := cmp.Or(err, verr); err != nil {
		return nil, nil, nil, err
	}
	for day := range vrows { // the view rows keep the full delta's growth counts
		vrows[day].NewNodes, vrows[day].NewSocialLinks = rows[day].NewNodes, rows[day].NewSocialLinks
	}
	return vrows, fullStats, viewStats, nil
}

// MountFiles loads and mounts timeline files from disk.
func (s *Server) MountFiles(name, fullPath, viewPath string) error {
	full, err := snapstore.LoadFile(fullPath)
	if err != nil {
		return fmt.Errorf("sanserve: mount %q: %w", name, err)
	}
	var view *snapstore.Timeline
	if viewPath != "" {
		if view, err = snapstore.LoadFile(viewPath); err != nil {
			return fmt.Errorf("sanserve: mount %q: %w", name, err)
		}
	}
	return s.Mount(name, full, view)
}

// Handler returns the service's HTTP handler: the API mux wrapped
// with the observability middleware — request counting, panic
// recovery (a decode failure deep in a lazily-built dataset becomes a
// 500, not a crashed server), per-request audit recording through the
// async Recorder (non-blocking: under overload rows are dropped and
// counted, the request is never stalled), and the structured access
// log.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		s.met.requests.Add(1)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		defer func() {
			if v := recover(); v != nil {
				s.met.panics.Add(1)
				httpError(sw, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", v))
			}
			s.observe(r, sw, t0)
		}()
		s.mux.ServeHTTP(sw, r)
	})
}

// observe emits one finished request into the analytics pipeline and
// the access log.  It runs on the request path, so everything here is
// cheap and nothing blocks: the Recorder send is buffered-or-dropped,
// and a disabled logger short-circuits before formatting.
func (s *Server) observe(r *http.Request, sw *statusWriter, t0 time.Time) {
	latency := time.Since(t0)
	endpoint, figure := endpointOf(r.URL.Path)
	var dayRange, scenarioLbl string
	if r.URL.RawQuery != "" {
		q := r.URL.Query()
		dayRange = q.Get("days")
		if dayRange == "" {
			dayRange = q.Get("day")
		}
		scenarioLbl = q.Get("timeline")
		if scenarioLbl == "" {
			scenarioLbl = q.Get("scenarios")
		}
	}
	id := obs.NewRequestID()
	s.rec.Record(obs.Audit{
		Time:      t0,
		RequestID: id,
		Endpoint:  endpoint,
		Method:    r.Method,
		Path:      r.URL.Path,
		Figure:    figure,
		Scenario:  scenarioLbl,
		DayRange:  dayRange,
		CacheHit:  sw.Header().Get("X-Cache") == "hit",
		Status:    sw.code,
		LatencyUS: latency.Microseconds(),
	})
	if s.logger.Enabled(r.Context(), slog.LevelInfo) {
		s.logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("id", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.RequestURI()),
			slog.Int("status", sw.code),
			slog.Duration("latency", latency.Round(time.Microsecond)))
	}
}

// Analytics exposes the async audit pipeline (tests drain it; the cmd
// reports drop counts at shutdown).
func (s *Server) Analytics() *obs.Recorder { return s.rec }

// Registry exposes the metric registry so embedding processes can
// register their own series onto this server's /metrics page.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Close drains the analytics pipeline (folding every accepted row and
// flushing the audit sink) and stops its worker.  The HTTP listener
// should be shut down first; requests recorded after Close count as
// drops.
func (s *Server) Close() {
	s.rec.Close()
}

// mountFor resolves the ?timeline= parameter; with exactly one mount
// the parameter may be omitted.
func (s *Server) mountFor(r *http.Request) (*Mount, error) {
	name := r.URL.Query().Get("timeline")
	s.mu.RLock()
	defer s.mu.RUnlock()
	if name == "" {
		if len(s.mounts) == 1 {
			for _, m := range s.mounts {
				return m, nil
			}
		}
		return nil, fmt.Errorf("%d timelines mounted; pass ?timeline=NAME (see /v1/timelines)", len(s.mounts))
	}
	m, ok := s.mounts[name]
	if !ok {
		return nil, fmt.Errorf("unknown timeline %q (see /v1/timelines)", name)
	}
	return m, nil
}

// parseDayRange interprets ?day=N or ?days=LO-HI (1-based, inclusive)
// against a timeline of numDays days.  Absent both, the full range is
// returned; passing both is rejected rather than silently preferring
// one.
func parseDayRange(r *http.Request, numDays int) (lo, hi int, err error) {
	q := r.URL.Query()
	lo, hi = 1, numDays
	switch {
	case q.Get("day") != "" && q.Get("days") != "":
		return 0, 0, fmt.Errorf("conflicting day selectors day=%q and days=%q (pass one)",
			q.Get("day"), q.Get("days"))
	case q.Get("day") != "":
		d, err := strconv.Atoi(q.Get("day"))
		if err != nil {
			return 0, 0, fmt.Errorf("bad day %q", q.Get("day"))
		}
		lo, hi = d, d
	case q.Get("days") != "":
		a, b, ok := strings.Cut(q.Get("days"), "-")
		if ok {
			var e1, e2 error
			lo, e1 = strconv.Atoi(a)
			hi, e2 = strconv.Atoi(b)
			ok = e1 == nil && e2 == nil
		}
		if !ok {
			return 0, 0, fmt.Errorf("bad days %q (want LO-HI)", q.Get("days"))
		}
	}
	if lo < 1 || hi > numDays || lo > hi {
		return 0, 0, fmt.Errorf("day range %d-%d outside timeline [1,%d]", lo, hi, numDays)
	}
	return lo, hi, nil
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// --- /healthz and /v1/timelines -----------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	n := len(s.mounts)
	s.mu.RUnlock()
	writeJSON(w, map[string]any{"status": "ok", "timelines": n})
}

// TimelineInfo describes one mount in /v1/timelines.
type TimelineInfo struct {
	Name      string `json:"name"`
	Days      int    `json:"days"`
	FullBytes int    `json:"full_bytes"`
	ViewBytes int    `json:"view_bytes"`
	SameView  bool   `json:"view_is_full"`
	// Live marks a still-producing timeline (MountLive): Days is the
	// count appended so far, and only /v1/stream serves it.
	Live bool `json:"live,omitempty"`
}

func (s *Server) handleTimelines(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	infos := make([]TimelineInfo, 0, len(s.mounts))
	for _, m := range s.mounts {
		if m.IsLive() {
			infos = append(infos, TimelineInfo{
				Name:      m.Name,
				Days:      m.live.NumDays(),
				FullBytes: m.live.PackedBytes(),
				SameView:  true,
				Live:      true,
			})
			continue
		}
		infos = append(infos, TimelineInfo{
			Name:      m.Name,
			Days:      m.Full.NumDays(),
			FullBytes: m.Full.Size(),
			ViewBytes: m.View.Size(),
			SameView:  m.View == m.Full,
		})
	}
	s.mu.RUnlock()
	// Stable order for clients and tests.
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	writeJSON(w, map[string]any{"timelines": infos})
}

// --- /v1/figures/{id} ---------------------------------------------

// SeriesPayload is one curve of a served figure.
type SeriesPayload struct {
	Name string    `json:"name"`
	X    []float64 `json:"x"`
	Y    []float64 `json:"y"`
}

// FigureResponse is the wire form of one figure query.
type FigureResponse struct {
	Timeline string          `json:"timeline"`
	Figure   string          `json:"figure"`
	FromDay  int             `json:"from_day"`
	ToDay    int             `json:"to_day"`
	ID       string          `json:"id"`
	Title    string          `json:"title"`
	Series   []SeriesPayload `json:"series"`
	Notes    []string        `json:"notes,omitempty"`
}

func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	m, err := s.mountFor(r)
	if err != nil {
		httpError(w, http.StatusNotFound, err.Error())
		return
	}
	if m.IsLive() {
		httpError(w, http.StatusBadRequest, errLiveMount(m.Name))
		return
	}
	lo, hi, err := parseDayRange(r, m.Full.NumDays())
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "json"
	}
	if format != "json" && format != "gob" {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("unknown format %q (json or gob)", format))
		return
	}
	data, ctype, err, hit := s.figureResult(r.Context(), m, id, lo, hi, format)
	if err != nil {
		s.writeFigureError(w, err, err.Error())
		return
	}
	// X-Cache feeds the audit row's cache_hit field and lets clients
	// distinguish a byte-copy from a fresh figure computation.
	if hit {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	w.Header().Set("Content-Type", ctype)
	w.Write(data)
}

// figureResult computes (or serves from the result cache) one
// figure's encoded response for a mount and day range.  It is the
// shared compute path of /v1/figures and /v1/compare: both endpoints
// hit the same (timeline, figure, day-range, format) cache keys with
// single-flight de-duplication, so a comparison warms the per-scenario
// cache and vice versa.
//
// ctx is the requesting client's: a disconnect mid-build ends this
// request's wait, releasing the admission-gate slot, while the
// mount's one dataset build runs on to completion for the next
// request.
func (s *Server) figureResult(ctx context.Context, m *Mount, id string, lo, hi int, format string) ([]byte, string, error, bool) {
	// A range spanning the whole timeline is the same query as no
	// range at all; normalizing here keeps the clipping behavior fully
	// determined by the cache key (lo, hi).
	ranged := lo > 1 || hi < m.Full.NumDays()
	s.met.figureRequests.Add(1)

	key := cacheKey{timeline: m.Name, gen: m.gen, figure: id, lo: lo, hi: hi, format: format}
	data, ctype, err, hit := s.cache.do(ctx, key, s.gate, func() ([]byte, string, error) {
		// Only figures that read the measured dataset wait for the
		// build; model-only figures never touch it.
		if experiments.NeedsDataset(id) {
			if err := m.ds.Build(ctx); err != nil {
				return nil, "", err
			}
		}
		fig, err := s.runFigure(id, m.ds)
		if err != nil {
			return nil, "", &statusError{http.StatusNotFound, err.Error()}
		}
		resp := FigureResponse{
			Timeline: m.Name,
			Figure:   id,
			FromDay:  lo,
			ToDay:    hi,
			ID:       fig.ID,
			Title:    fig.Title,
			Notes:    fig.Notes,
		}
		for _, series := range fig.Series {
			p := SeriesPayload{Name: series.Name, X: []float64{}, Y: []float64{}}
			for i, x := range series.X {
				// The range filter reads X as a calendar day; it is
				// only applied when the client asked for a sub-range,
				// so distribution figures (X = degree) stay whole by
				// default.
				if ranged && (x < float64(lo) || x > float64(hi)) {
					continue
				}
				p.X = append(p.X, x)
				p.Y = append(p.Y, series.Y[i])
			}
			resp.Series = append(resp.Series, p)
		}
		return encodeFigure(resp, format)
	})
	// A shed request never reached the cache: counting it as a miss
	// would skew the hit ratio under overload.
	if err != errShed {
		if hit {
			s.met.cacheHits.Add(1)
		} else {
			s.met.cacheMisses.Add(1)
		}
	}
	return data, ctype, err, hit
}

// statusClientClosedRequest is the nginx convention for "the client
// disconnected before the response was ready"; nobody reads the body,
// but the access log and audit rows distinguish it from server faults.
const statusClientClosedRequest = 499

// writeFigureError maps a figureResult error onto an HTTP response.
// Shed responses (429) get the Retry-After hint and are not counted
// as figure errors — admission control working as intended is not a
// failure — and neither is a context cancellation (the client hung
// up; the build it was waiting on keeps running for the next request);
// everything else increments sanserve_figure_errors_total.
func (s *Server) writeFigureError(w http.ResponseWriter, err error, msg string) {
	code := http.StatusInternalServerError
	var se *statusError
	if asStatusError(err, &se) {
		code = se.code
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		httpError(w, statusClientClosedRequest, msg)
		return
	}
	if code == http.StatusTooManyRequests {
		secs := int((s.opts.RetryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	} else {
		s.met.figureErrors.Add(1)
	}
	httpError(w, code, msg)
}

// statusError carries an HTTP status through the cache compute path.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return e.msg }

func asStatusError(err error, target **statusError) bool {
	if se, ok := err.(*statusError); ok {
		*target = se
		return true
	}
	return false
}

func encodeFigure(resp FigureResponse, format string) ([]byte, string, error) {
	if format == "gob" {
		var buf strings.Builder
		if err := gob.NewEncoder(&buf).Encode(resp); err != nil {
			return nil, "", err
		}
		return []byte(buf.String()), "application/x-gob", nil
	}
	data, err := json.Marshal(resp)
	if err != nil {
		return nil, "", err
	}
	return append(data, '\n'), "application/json", nil
}

// --- /v1/snapshots ------------------------------------------------

// SnapshotStats is the wire form of one day's headline metrics (the
// HTTP counterpart of `sanstore stat`).
type SnapshotStats struct {
	Timeline      string  `json:"timeline"`
	Day           int     `json:"day"`
	Source        string  `json:"source"`
	SocialNodes   int     `json:"social_nodes"`
	SocialLinks   int     `json:"social_links"`
	AttrNodes     int     `json:"attr_nodes"`
	AttrLinks     int     `json:"attr_links"`
	Reciprocity   float64 `json:"reciprocity"`
	SocialDensity float64 `json:"social_density"`
	AttrDensity   float64 `json:"attr_density"`
}

// snapshotStats flattens one day's SAN into the wire form.
func snapshotStats(timeline string, day int, source string, g *san.SAN) SnapshotStats {
	st := g.Stats()
	return SnapshotStats{
		Timeline:      timeline,
		Day:           day,
		Source:        source,
		SocialNodes:   st.SocialNodes,
		SocialLinks:   st.SocialLinks,
		AttrNodes:     st.AttrNodes,
		AttrLinks:     st.AttrLinks,
		Reciprocity:   g.Reciprocity(),
		SocialDensity: g.SocialDensity(),
		AttrDensity:   g.AttrDensity(),
	}
}

// sourceStats resolves ?source=full|view (default full) to that role's
// per-day stats and its hit counter.
func (m *Mount) sourceStats(r *http.Request) ([]SnapshotStats, *atomic.Uint64, error) {
	switch src := r.URL.Query().Get("source"); src {
	case "", "full":
		return m.fullStats, &m.hits[0], nil
	case "view":
		return m.viewStats, &m.hits[1], nil
	default:
		return nil, nil, fmt.Errorf("unknown source %q (full or view)", src)
	}
}

func (s *Server) handleSnapshotStats(w http.ResponseWriter, r *http.Request) {
	m, err := s.mountFor(r)
	if err != nil {
		httpError(w, http.StatusNotFound, err.Error())
		return
	}
	if m.IsLive() {
		httpError(w, http.StatusBadRequest, errLiveMount(m.Name))
		return
	}
	day, err := strconv.Atoi(r.PathValue("day"))
	if err != nil || day < 1 || day > m.Full.NumDays() {
		httpError(w, http.StatusBadRequest,
			fmt.Sprintf("day %q outside timeline [1,%d]", r.PathValue("day"), m.Full.NumDays()))
		return
	}
	stats, hits, err := m.sourceStats(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.met.snapshotRequests.Add(1)
	hits.Add(1)
	writeJSON(w, stats[day-1])
}

// handleStatsSweep serves per-day stats over a day range.
func (s *Server) handleStatsSweep(w http.ResponseWriter, r *http.Request) {
	m, err := s.mountFor(r)
	if err != nil {
		httpError(w, http.StatusNotFound, err.Error())
		return
	}
	if m.IsLive() {
		httpError(w, http.StatusBadRequest, errLiveMount(m.Name))
		return
	}
	lo, hi, err := parseDayRange(r, m.Full.NumDays())
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	stats, hits, err := m.sourceStats(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.met.snapshotRequests.Add(1)
	hits.Add(uint64(hi - lo + 1))
	writeJSON(w, map[string]any{"stats": stats[lo-1 : hi]})
}
