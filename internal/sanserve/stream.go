package sanserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/san"
	"repro/internal/snapstore"
)

// This file is the streaming workload: GET /v1/stream/{timeline}
// emits one NDJSON record (or, with `Accept: text/event-stream`, SSE
// data event) per day — the day's delta summary plus any requested
// metrics.  A static mount reads tables: the summaries recorded at
// mount time and its dataset's per-day records, from the one build the
// figures share.  A live mount is walked through a snapstore cursor
// and folded by a fresh experiments.DayFolder, the build's fold step.
//
//	GET /v1/stream/{timeline}?from=LO&to=HI&metrics=cc,recip&pace=MS
//
//	from, to   1-based day range (default: the whole timeline; for
//	           live mounts to=0 means "until the producer finishes")
//	metrics    comma-separated metric names, or "all"; empty streams
//	           delta summaries only
//	pace       milliseconds to sleep between days (bounded), for
//	           paced replays and deterministic mid-stream tests
//
// Each stream ends with a terminal record: {"done":true,"rows":N} on
// completion, {"error":...} when the server is draining or the walk
// failed (naming the day); a disconnected client gets none.  Idle
// streams emit {"heartbeat":true} every Options.StreamHeartbeat.

// StreamRecord is one per-day row of /v1/stream.
type StreamRecord struct {
	Day            int `json:"day"`
	NewNodes       int `json:"new_nodes"`
	NewAttrs       int `json:"new_attrs"`
	NewSocialLinks int `json:"new_social_links"`
	NewAttrLinks   int `json:"new_attr_links"`
	SocialNodes    int `json:"social_nodes"`
	SocialLinks    int `json:"social_links"`
	AttrNodes      int `json:"attr_nodes"`
	AttrLinks      int `json:"attr_links"`

	// Metrics holds the requested folded metrics by name.  NaN values
	// (diameters off their DiamEvery schedule, degenerate early-day
	// fits) are omitted — JSON cannot carry NaN.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// streamMetricFields maps ?metrics= names onto DayMetrics fields.
var streamMetricFields = map[string]func(experiments.DayMetrics) float64{
	"recip":             func(m experiments.DayMetrics) float64 { return m.Recip },
	"social_density":    func(m experiments.DayMetrics) float64 { return m.SocialDensity },
	"attr_density":      func(m experiments.DayMetrics) float64 { return m.AttrDensity },
	"assort":            func(m experiments.DayMetrics) float64 { return m.Assort },
	"attr_assort":       func(m experiments.DayMetrics) float64 { return m.AttrAssort },
	"cc":                func(m experiments.DayMetrics) float64 { return m.CC },
	"attr_cc":           func(m experiments.DayMetrics) float64 { return m.AttrCC },
	"mu_out":            func(m experiments.DayMetrics) float64 { return m.MuOut },
	"sigma_out":         func(m experiments.DayMetrics) float64 { return m.SigmaOut },
	"mu_in":             func(m experiments.DayMetrics) float64 { return m.MuIn },
	"sigma_in":          func(m experiments.DayMetrics) float64 { return m.SigmaIn },
	"mu_attr_deg":       func(m experiments.DayMetrics) float64 { return m.MuAttrDeg },
	"sigma_attr_deg":    func(m experiments.DayMetrics) float64 { return m.SigmaAttrDeg },
	"alpha_attr_social": func(m experiments.DayMetrics) float64 { return m.AlphaAttrSocial },
	"diam_social":       func(m experiments.DayMetrics) float64 { return m.DiamSocial },
	"diam_attr":         func(m experiments.DayMetrics) float64 { return m.DiamAttr },
}

// streamMetricNames returns the valid ?metrics= names, sorted.
func streamMetricNames() []string {
	names := make([]string, 0, len(streamMetricFields))
	for name := range streamMetricFields {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// parseStreamMetrics resolves ?metrics= into a sorted name list; empty
// means "no folded metrics".
func parseStreamMetrics(param string) ([]string, error) {
	if param == "" {
		return nil, nil
	}
	if param == "all" {
		return streamMetricNames(), nil
	}
	seen := map[string]bool{}
	var names []string
	for _, name := range strings.Split(param, ",") {
		name = strings.TrimSpace(name)
		if name == "" || seen[name] {
			continue
		}
		if _, ok := streamMetricFields[name]; !ok {
			return nil, fmt.Errorf("unknown metric %q (known: %s, or all)", name, strings.Join(streamMetricNames(), ","))
		}
		seen[name] = true
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// maxStreamPace bounds ?pace= so a client cannot park a stream nearly
// forever between days (heartbeats still flow while it sleeps).
const maxStreamPace = 10 * time.Second

// streamHandle registers one in-flight stream for DrainStreams.
type streamHandle struct {
	cancel context.CancelCauseFunc
}

// errDraining is the cancel cause DrainStreams injects; handlers turn
// it into a terminal NDJSON error record instead of a cut socket.
var errDraining = errors.New("server is shutting down")

func (s *Server) registerStream(h *streamHandle) (unregister func()) {
	s.streamMu.Lock()
	s.streams[h] = struct{}{}
	s.streamMu.Unlock()
	return func() {
		s.streamMu.Lock()
		delete(s.streams, h)
		s.streamMu.Unlock()
	}
}

// ActiveStreams reports the number of in-flight /v1/stream responses
// (the sanserve_streams_active gauge).
func (s *Server) ActiveStreams() int {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	return len(s.streams)
}

// DrainStreams cancels every active stream with a draining cause —
// each writes a terminal {"error":...} record and unwinds — and waits
// until all have finished or ctx expires.  Call it before shutting the
// HTTP server down so in-flight streams end with a readable record
// instead of a cut socket; streams stay in sanserve_streams_active
// until their handlers return.
func (s *Server) DrainStreams(ctx context.Context) error {
	s.streamMu.Lock()
	for h := range s.streams {
		h.cancel(errDraining)
	}
	s.streamMu.Unlock()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.ActiveStreams() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("sanserve: %d streams still active: %w", s.ActiveStreams(), ctx.Err())
		case <-tick.C:
		}
	}
}

// MountLive mounts a still-producing timeline under name: /v1/stream
// tails it — blocking on days the producer has not appended yet,
// finishing when the producer calls Finish — while every other
// endpoint rejects it.  This is how a `sangen -serve` run exposes its
// simulation's evolution while it is still being computed.
func (s *Server) MountLive(name string, live *snapstore.Live) error {
	if name == "" || strings.ContainsAny(name, " /?&=") {
		return fmt.Errorf("sanserve: invalid mount name %q", name)
	}
	if live == nil {
		return fmt.Errorf("sanserve: mount %q: nil live timeline", name)
	}
	m := &Mount{Name: name, live: live, gen: s.mountGen.Add(1)}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.mounts[name]; ok {
		return fmt.Errorf("sanserve: mount %q already exists", name)
	}
	s.mounts[name] = m
	return nil
}

// streamWriter serializes records onto the response from both the
// walk loop and the heartbeat goroutine, flushing after every record
// so rows reach the client as they are produced.
type streamWriter struct {
	mu  sync.Mutex
	w   http.ResponseWriter
	rc  *http.ResponseController
	sse bool
}

func (sw *streamWriter) writeRecord(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.sse {
		_, err = fmt.Fprintf(sw.w, "data: %s\n\n", data)
	} else {
		_, err = sw.w.Write(append(data, '\n'))
	}
	if err != nil {
		return err
	}
	// A writer without Flush support just buffers; everything else is a
	// dead connection.
	if err := sw.rc.Flush(); err != nil && !errors.Is(err, http.ErrNotSupported) {
		return err
	}
	return nil
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("timeline")
	s.mu.RLock()
	m := s.mounts[name]
	s.mu.RUnlock()
	if m == nil {
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown timeline %q (see /v1/timelines)", name))
		return
	}
	q := r.URL.Query()
	from, to := 1, 0
	var err error
	if v := q.Get("from"); v != "" {
		if from, err = strconv.Atoi(v); err != nil || from < 1 {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("bad from %q (want a 1-based day)", v))
			return
		}
	}
	if v := q.Get("to"); v != "" {
		if to, err = strconv.Atoi(v); err != nil || to < from {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("bad to %q (want a day >= from)", v))
			return
		}
	}
	metricNames, err := parseStreamMetrics(q.Get("metrics"))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	var pace time.Duration
	if v := q.Get("pace"); v != "" {
		ms, err := strconv.Atoi(v)
		if err != nil || ms < 0 {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("bad pace %q (want milliseconds)", v))
			return
		}
		pace = min(time.Duration(ms)*time.Millisecond, maxStreamPace)
	}

	var next func(ctx context.Context) (StreamRecord, error)
	if m.IsLive() {
		cur, err := snapstore.OpenSourceCursorN(m.live)
		if err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		defer cur.Close()
		next = liveRows(s.opts.Cfg, cur, from, to, metricNames)
	} else {
		n := m.Full.NumDays()
		if from > n || to > n {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("day range %d-%d outside timeline [1,%d]", from, to, n))
			return
		}
		if to == 0 {
			to = n
		}
		next = m.tableRows(from, to, metricNames)
	}

	// The walk is cancelable three ways: client disconnect (the request
	// context), server drain (DrainStreams cancels with errDraining),
	// and normal completion.
	ctx, cancel := context.WithCancelCause(r.Context())
	defer cancel(nil)
	handle := &streamHandle{cancel: cancel}
	unregister := s.registerStream(handle)
	defer unregister()
	s.met.streamsTotal.Add(1)

	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	sw := &streamWriter{w: w, rc: http.NewResponseController(w), sse: sse}

	// Heartbeats cover the silent stretches: a wait on a cold build, a
	// cursor blocked on a live producer, or a paced replay's sleep.
	if hb := s.opts.StreamHeartbeat; hb > 0 {
		hbStop := make(chan struct{})
		hbDone := make(chan struct{})
		// Join before returning: the goroutine must never touch the
		// ResponseWriter after the handler has unwound.
		defer func() { close(hbStop); <-hbDone }()
		go func() {
			defer close(hbDone)
			tick := time.NewTicker(hb)
			defer tick.Stop()
			for {
				select {
				case <-hbStop:
					return
				case <-tick.C:
					sw.writeRecord(map[string]bool{"heartbeat": true})
				}
			}
		}()
	}

	finish := func(cause error) {
		s.met.streamsCanceled.Add(1)
		if errors.Is(cause, errDraining) {
			sw.writeRecord(map[string]string{"error": errDraining.Error()})
		}
		// A disconnected client reads nothing; no terminal record.
	}

	rows := 0
	for {
		rec, err := next(ctx)
		if ctx.Err() != nil {
			finish(context.Cause(ctx))
			return
		}
		if err == snapstore.ErrDone {
			break
		}
		if err != nil {
			// A failed walk is a value: the client reads why it ended.
			sw.writeRecord(map[string]string{"error": err.Error()})
			return
		}
		if err := sw.writeRecord(rec); err != nil {
			// The connection died faster than the context propagated.
			finish(context.Cause(ctx))
			return
		}
		s.met.streamRows.Add(1)
		rows++
		if pace > 0 {
			select {
			case <-ctx.Done():
				finish(context.Cause(ctx))
				return
			case <-time.After(pace):
			}
		}
	}
	sw.writeRecord(map[string]any{"done": true, "rows": rows})
}

// dayRecord is the delta summary of one 1-based day: growth counts
// from the day's delta d, totals from the day's graph g.
func dayRecord(day int, d *snapstore.Delta, g *san.SAN) StreamRecord {
	st := g.Stats()
	return StreamRecord{
		Day:            day,
		NewNodes:       d.NewSocial,
		NewAttrs:       d.NewAttrs,
		NewSocialLinks: len(d.SocialEdges),
		NewAttrLinks:   len(d.AttrLinks),
		SocialNodes:    st.SocialNodes,
		SocialLinks:    st.SocialLinks,
		AttrNodes:      st.AttrNodes,
		AttrLinks:      st.AttrLinks,
	}
}

// pickMetrics copies the requested DayMetrics fields, omitting NaNs.
func pickMetrics(dm experiments.DayMetrics, names []string) map[string]float64 {
	out := make(map[string]float64, len(names))
	for _, name := range names {
		if v := streamMetricFields[name](dm); !math.IsNaN(v) {
			out[name] = v
		}
	}
	return out
}

// tableRows serves days from..to of a static mount from the summaries
// recorded at mount time and, when metrics are requested, the
// dataset's per-day records, waiting on its build.
func (m *Mount) tableRows(from, to int, metricNames []string) func(context.Context) (StreamRecord, error) {
	day := from
	return func(ctx context.Context) (StreamRecord, error) {
		if day > to {
			return StreamRecord{}, snapstore.ErrDone
		}
		if len(metricNames) > 0 {
			if err := m.ds.Build(ctx); err != nil {
				return StreamRecord{}, err
			}
		}
		rec := m.rows[day-1]
		if len(metricNames) > 0 {
			rec.Metrics = pickMetrics(m.ds.Days()[day-1], metricNames)
		}
		day++
		return rec, nil
	}
}

// liveRows walks a live mount's cursor (to=0: until the producer
// finishes), folding requested metrics through a fresh DayFolder.
func liveRows(cfg experiments.Config, cur *snapstore.CursorN, from, to int, metricNames []string) func(context.Context) (StreamRecord, error) {
	var folder *experiments.DayFolder
	if len(metricNames) > 0 {
		folder = experiments.NewDayFolder(cfg)
	}
	return func(ctx context.Context) (StreamRecord, error) {
		for {
			day, gs, ds, err := cur.Next(ctx)
			if err != nil {
				return StreamRecord{}, err
			}
			if to != 0 && day+1 > to {
				return StreamRecord{}, snapstore.ErrDone
			}
			if folder != nil {
				folder.Feed(ds[0], ds[0])
			}
			if day+1 < from {
				continue
			}
			rec := dayRecord(day+1, ds[0], gs[0])
			if folder != nil {
				rec.Metrics = pickMetrics(folder.Measure(day+1, gs[0], gs[0]), metricNames)
			}
			return rec, nil
		}
	}
}
