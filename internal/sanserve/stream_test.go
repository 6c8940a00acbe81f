package sanserve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/snapstore"
)

// streamLine is the union of every /v1/stream record shape: per-day
// rows, heartbeats, and the terminal done/error record.
type streamLine struct {
	StreamRecord
	Done      bool   `json:"done"`
	Rows      int    `json:"rows"`
	Error     string `json:"error"`
	Heartbeat bool   `json:"heartbeat"`
}

// parseStream splits an NDJSON stream body into day rows and the
// terminal record, dropping heartbeats.
func parseStream(t *testing.T, r io.Reader) (rows []streamLine, terminal *streamLine) {
	t.Helper()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line streamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		switch {
		case line.Heartbeat:
		case line.Done || line.Error != "":
			if terminal != nil {
				t.Fatalf("two terminal records (second: %q)", sc.Text())
			}
			terminal = &line
		default:
			if terminal != nil {
				t.Fatalf("day row after terminal record: %q", sc.Text())
			}
			rows = append(rows, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	return rows, terminal
}

// TestStreamMatchesBatch is the streaming side of the bitwise-identity
// contract: metrics=all rows must carry exactly the per-day values the
// batch dataset (and hence every figure) reports.  JSON round-trips
// float64 exactly, so == here really is bitwise.
func TestStreamMatchesBatch(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.Handler()
	full, view := testTimelines(t)

	rec := get(t, h, "/v1/stream/gplus?metrics=all")
	if rec.Code != 200 {
		t.Fatalf("stream: %d %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q, want application/x-ndjson", ct)
	}
	rows, terminal := parseStream(t, rec.Body)
	if len(rows) != full.NumDays() {
		t.Fatalf("%d rows, want %d", len(rows), full.NumDays())
	}
	if terminal == nil || !terminal.Done || terminal.Rows != len(rows) {
		t.Fatalf("terminal record: %+v", terminal)
	}

	batch := experiments.NewTimelineDataset(testConfig(), full, view)
	days := batch.Days()
	for i, row := range rows {
		if row.Day != i+1 {
			t.Fatalf("row %d has day %d", i, row.Day)
		}
		st := days[i].Stats
		if row.SocialNodes != st.SocialNodes || row.SocialLinks != st.SocialLinks ||
			row.AttrNodes != st.AttrNodes || row.AttrLinks != st.AttrLinks {
			t.Fatalf("day %d stats diverge: %+v vs %+v", row.Day, row.StreamRecord, st)
		}
		for name, field := range streamMetricFields {
			want := field(days[i])
			got, ok := row.Metrics[name]
			if math.IsNaN(want) {
				if ok {
					t.Errorf("day %d metric %s: got %v, want omitted (NaN)", row.Day, name, got)
				}
				continue
			}
			if !ok || got != want {
				t.Errorf("day %d metric %s: got %v (present=%v), want %v", row.Day, name, got, ok, want)
			}
		}
	}

	// Cumulative delta summaries must reconcile with the final stats.
	nodes, links := 0, 0
	for _, row := range rows {
		nodes += row.NewNodes
		links += row.NewSocialLinks
	}
	last := rows[len(rows)-1]
	if nodes != last.SocialNodes || links != last.SocialLinks {
		t.Errorf("delta summaries sum to %d nodes / %d links, final stats say %d / %d",
			nodes, links, last.SocialNodes, last.SocialLinks)
	}
}

// TestStreamSeekRange checks the summaries-only fast path: a from=
// range with no metrics seeks past the prefix, and the rows it serves
// are identical to the same days of a full walk.
func TestStreamSeekRange(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.Handler()

	all, _ := parseStream(t, get(t, h, "/v1/stream/gplus").Body)
	rec := get(t, h, "/v1/stream/gplus?from=5&to=8")
	if rec.Code != 200 {
		t.Fatalf("ranged stream: %d %s", rec.Code, rec.Body.String())
	}
	rows, terminal := parseStream(t, rec.Body)
	if len(rows) != 4 || terminal == nil || terminal.Rows != 4 {
		t.Fatalf("ranged stream: %d rows, terminal %+v", len(rows), terminal)
	}
	for i, row := range rows {
		if !reflect.DeepEqual(row, all[4+i]) {
			t.Fatalf("day %d diverges after seek: %+v vs %+v", row.Day, row, all[4+i])
		}
	}

	for path, code := range map[string]int{
		"/v1/stream/nope":              404,
		"/v1/stream/gplus?from=0":      400,
		"/v1/stream/gplus?from=99":     400,
		"/v1/stream/gplus?to=99":       400,
		"/v1/stream/gplus?from=5&to=2": 400,
		"/v1/stream/gplus?metrics=bad": 400,
		"/v1/stream/gplus?pace=x":      400,
	} {
		if rec := get(t, h, path); rec.Code != code {
			t.Errorf("%s: %d, want %d (%s)", path, rec.Code, code, rec.Body.String())
		}
	}
}

// TestStreamSSE checks the Accept-negotiated framing: same records,
// wrapped as SSE data events.
func TestStreamSSE(t *testing.T) {
	s := newTestServer(t, Options{})
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/v1/stream/gplus?to=3", nil)
	req.Header.Set("Accept", "text/event-stream")
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("sse stream: %d %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("content type %q, want text/event-stream", ct)
	}
	frames := strings.Split(strings.TrimRight(rec.Body.String(), "\n"), "\n\n")
	if len(frames) != 4 { // 3 days + terminal
		t.Fatalf("%d frames, want 4: %q", len(frames), frames)
	}
	for _, f := range frames {
		if !strings.HasPrefix(f, "data: ") {
			t.Fatalf("frame without data prefix: %q", f)
		}
		var line streamLine
		if err := json.Unmarshal([]byte(strings.TrimPrefix(f, "data: ")), &line); err != nil {
			t.Fatalf("bad sse frame %q: %v", f, err)
		}
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestStreamCancelNoLeak is the disconnect-storm gate (run under
// -race): 100 concurrent paced streams, every client canceled
// mid-walk, must all unwind — no stuck handlers, no leaked walk or
// heartbeat goroutines — and each cancellation must be counted.
func TestStreamCancelNoLeak(t *testing.T) {
	s := newTestServer(t, Options{StreamHeartbeat: 5 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		ts.Close()
		waitFor(t, 5*time.Second, "goroutines to drain", func() bool {
			runtime.GC()
			return runtime.NumGoroutine() <= before+5
		})
	})

	const n = 100
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/stream/gplus?pace=400", nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Errorf("stream request: %v", err)
				return
			}
			defer resp.Body.Close()
			// Read one row so the walk is provably in flight, then hang up.
			if _, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil {
				t.Errorf("first row: %v", err)
				return
			}
			cancel()
		}()
	}
	wg.Wait()

	waitFor(t, 10*time.Second, "streams to unwind", func() bool { return s.ActiveStreams() == 0 })
	if got := s.met.streamsCanceled.Load(); got < n {
		t.Errorf("streams_canceled_total = %d, want >= %d", got, n)
	}
	if got := s.met.streamsTotal.Load(); got != n {
		t.Errorf("streams_total = %d, want %d", got, n)
	}
}

// TestDrainStreams checks graceful shutdown: draining an in-flight
// stream delivers a terminal NDJSON error record (not a cut socket),
// counts the stream as canceled, and empties the active gauge.
func TestDrainStreams(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/stream/gplus?pace=400")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatalf("first row: %v", err)
	}
	waitFor(t, 5*time.Second, "stream to register", func() bool { return s.ActiveStreams() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.DrainStreams(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if n := s.ActiveStreams(); n != 0 {
		t.Fatalf("%d streams active after drain", n)
	}

	rows, terminal := parseStream(t, br)
	if terminal == nil || terminal.Error == "" {
		t.Fatalf("drained stream ended without a terminal error record (rows=%d, terminal=%+v)", len(rows), terminal)
	}
	if !strings.Contains(terminal.Error, "shutting down") {
		t.Errorf("terminal error %q, want a shutdown notice", terminal.Error)
	}
	if got := s.met.streamsCanceled.Load(); got != 1 {
		t.Errorf("streams_canceled_total = %d, want 1", got)
	}
}

// TestLiveMount checks the live-tail path end to end: a producer
// appends days to a snapstore.Live while a stream client tails it, the
// stream finishes when the producer does, and every non-stream
// endpoint refuses the mount.
func TestLiveMount(t *testing.T) {
	full, _ := testTimelines(t)
	s := New(Options{Cfg: testConfig()})
	live := snapstore.NewLive()
	if err := s.MountLive("run", live); err != nil {
		t.Fatal(err)
	}
	if err := s.MountLive("run", live); err == nil {
		t.Fatal("duplicate live mount accepted")
	}
	h := s.Handler()

	// The producer replays the packed test timeline day by day.
	cur, err := snapstore.OpenCursorN([]*snapstore.Timeline{full})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		defer close(done)
		defer cur.Close()
		for {
			_, gs, _, err := cur.Next(context.Background())
			if err == snapstore.ErrDone {
				live.Finish()
				return
			}
			if err != nil {
				done <- err
				return
			}
			if err := live.Append(gs[0]); err != nil {
				done <- err
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	rec := get(t, h, "/v1/stream/run?metrics=cc,recip")
	if err := <-done; err != nil {
		t.Fatalf("producer: %v", err)
	}
	if rec.Code != 200 {
		t.Fatalf("live stream: %d %s", rec.Code, rec.Body.String())
	}
	rows, terminal := parseStream(t, rec.Body)
	if len(rows) != full.NumDays() || terminal == nil || !terminal.Done {
		t.Fatalf("live stream: %d rows (want %d), terminal %+v", len(rows), full.NumDays(), terminal)
	}

	// Every other data endpoint must refuse the live mount.
	for _, path := range []string{
		"/v1/figures/2?timeline=run",
		"/v1/snapshots/3/stats?timeline=run",
		"/v1/snapshots/stats?timeline=run",
		"/v1/compare/2?scenarios=run",
	} {
		rec := get(t, h, path)
		if rec.Code == 200 {
			t.Errorf("%s served a live mount: %s", path, rec.Body.String())
		}
		if !strings.Contains(rec.Body.String(), "live") {
			t.Errorf("%s error does not mention live: %s", path, rec.Body.String())
		}
	}
	var tls struct {
		Timelines []TimelineInfo `json:"timelines"`
	}
	if err := json.Unmarshal(get(t, h, "/v1/timelines").Body.Bytes(), &tls); err != nil {
		t.Fatal(err)
	}
	if len(tls.Timelines) != 1 || !tls.Timelines[0].Live || tls.Timelines[0].Days != full.NumDays() {
		t.Fatalf("timelines listing: %+v", tls.Timelines)
	}
}

// TestCancelMidBuildFreesGate is the admission-control regression test:
// a client that disconnects while the dataset builds must release its
// gate slot at once (not pin it until the walk finishes), and the next
// request must be admitted and complete on the same build, which runs
// exactly once.
func TestCancelMidBuildFreesGate(t *testing.T) {
	s := newTestServer(t, Options{MaxBuilds: 1})
	s.mu.RLock()
	m := s.mounts["gplus"]
	s.mu.RUnlock()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err, _ := s.figureResult(ctx, m, "2", 1, 12, "json")
	if err != context.Canceled {
		t.Fatalf("canceled build returned %v, want context.Canceled", err)
	}
	if n := s.gate.InFlight(); n != 0 {
		t.Fatalf("%d build slots still held after cancellation", n)
	}

	// The gate has one slot; with the canceled caller's slot freed the
	// next request must be admitted, wait on the build, and succeed.
	data, _, err, _ := s.figureResult(context.Background(), m, "2", 1, 12, "json")
	if err != nil || len(data) == 0 {
		t.Fatalf("post-cancel build: %v", err)
	}
	if got := s.simProg.Days(); got != 12 {
		t.Errorf("build folded %d total days, want 12 (one build, no restart)", got)
	}

	// End-to-end flavor: against a mount whose dataset is still
	// unbuilt, a request whose context is already canceled answers 499
	// and is not counted as a figure error.
	full, view := testTimelines(t)
	if err := s.Mount("cold", full, view); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/v1/figures/4?timeline=cold", nil).WithContext(ctx)
	errsBefore := s.met.figureErrors.Load()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("canceled request: %d %s, want 499", rec.Code, rec.Body.String())
	}
	if got := s.met.figureErrors.Load(); got != errsBefore {
		t.Errorf("client cancellation counted as a figure error")
	}
}

// cursorWalkBody is the reference for a static mount's stream body:
// the walk the handler used to run per request.  It opens a lockstep
// cursor over the pair, seeks past the prefix when no metrics are
// asked for, folds every day from day 0 through a fresh DayFolder
// otherwise, and frames the rows and the done record as the handler
// does.
func cursorWalkBody(t *testing.T, cfg experiments.Config, full, view *snapstore.Timeline, from, to int, metricNames []string, sse bool) string {
	t.Helper()
	tls := []*snapstore.Timeline{full}
	if view != full {
		tls = append(tls, view)
	}
	cur, err := snapstore.OpenCursorN(tls)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	var folder *experiments.DayFolder
	if len(metricNames) > 0 {
		folder = experiments.NewDayFolder(cfg)
	} else if err := cur.Seek(from - 1); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	sw := &streamWriter{w: rec, rc: http.NewResponseController(rec), sse: sse}
	rows := 0
	for {
		day, gs, ds, err := cur.Next(context.Background())
		if err == snapstore.ErrDone {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		dayNum := day + 1
		if dayNum > to {
			break
		}
		fg, fd := gs[0], ds[0]
		vg, vd := fg, fd
		if view != full {
			vg, vd = gs[1], ds[1]
		}
		if folder != nil {
			folder.Feed(fd, vd)
		}
		if dayNum < from {
			continue
		}
		st := vg.Stats()
		row := StreamRecord{
			Day:            dayNum,
			NewNodes:       fd.NewSocial,
			NewAttrs:       vd.NewAttrs,
			NewSocialLinks: len(fd.SocialEdges),
			NewAttrLinks:   len(vd.AttrLinks),
			SocialNodes:    st.SocialNodes,
			SocialLinks:    st.SocialLinks,
			AttrNodes:      st.AttrNodes,
			AttrLinks:      st.AttrLinks,
		}
		if folder != nil {
			dm := folder.Measure(dayNum, fg, vg)
			row.Metrics = map[string]float64{}
			for _, name := range metricNames {
				if v := streamMetricFields[name](dm); !math.IsNaN(v) {
					row.Metrics[name] = v
				}
			}
		}
		if err := sw.writeRecord(row); err != nil {
			t.Fatal(err)
		}
		rows++
	}
	if err := sw.writeRecord(map[string]any{"done": true, "rows": rows}); err != nil {
		t.Fatal(err)
	}
	return rec.Body.String()
}

// TestStreamMatchesCursorWalk pins the table-served stream to the
// per-request cursor walk it replaced: for a pair mount and a
// single-file mount, every query shape's body is byte-identical to the
// reference's.
func TestStreamMatchesCursorWalk(t *testing.T) {
	full, view := testTimelines(t)
	s := newTestServer(t, Options{})
	if err := s.Mount("single", full, nil); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	n := full.NumDays()
	shapes := []struct {
		query    string
		from, to int
		metrics  string
		sse      bool
	}{
		{"", 1, n, "", false},
		{"from=5&to=8", 5, 8, "", false},
		{"to=3", 1, 3, "", true},
		{"metrics=all", 1, n, "all", false},
		{"from=3&metrics=cc,recip", 3, n, "cc,recip", false},
	}
	for _, mnt := range []struct {
		name       string
		full, view *snapstore.Timeline
	}{{"gplus", full, view}, {"single", full, full}} {
		for _, sh := range shapes {
			names, err := parseStreamMetrics(sh.metrics)
			if err != nil {
				t.Fatal(err)
			}
			want := cursorWalkBody(t, s.opts.Cfg, mnt.full, mnt.view, sh.from, sh.to, names, sh.sse)
			req := httptest.NewRequest("GET", "/v1/stream/"+mnt.name+"?"+sh.query, nil)
			if sh.sse {
				req.Header.Set("Accept", "text/event-stream")
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != 200 || rec.Body.String() != want {
				t.Errorf("%s?%s (sse=%v): %d, body differs from the cursor walk:\n got %q\nwant %q",
					mnt.name, sh.query, sh.sse, rec.Code, rec.Body.String(), want)
			}
		}
	}
}

// flipDayTag returns a copy of tl whose day record (0-based) has one
// bit of its tag byte flipped: the copy loads, but that day fails to
// decode.
func flipDayTag(t *testing.T, tl *snapstore.Timeline, day int) *snapstore.Timeline {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tl.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	off := len(b)
	for i := day; i < tl.NumDays(); i++ {
		off -= tl.DaySize(i)
	}
	b[off] ^= 1
	bad, err := snapstore.ReadTimeline(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return bad
}

// TestMountRejectsCorruptDay pins mount-time validation: the walk that
// records the stream summaries still decodes every delta of both
// timelines, so a bit-flipped day in either role fails Mount with an
// error naming the role and the day (the full role when both are
// corrupt), and the mount is never listed.
func TestMountRejectsCorruptDay(t *testing.T) {
	full, view := testTimelines(t)
	const day = 5
	for _, c := range []struct {
		role       string
		full, view *snapstore.Timeline
	}{
		{"full timeline", flipDayTag(t, full, day), view},
		{"view timeline", full, flipDayTag(t, view, day)},
		// Both walks fail: the full walk's error is the one reported.
		{"full timeline", flipDayTag(t, full, day), flipDayTag(t, view, day)},
	} {
		s := New(Options{Cfg: testConfig()})
		err := s.Mount("bad", c.full, c.view)
		if err == nil || !strings.Contains(err.Error(), c.role) || !strings.Contains(err.Error(), fmt.Sprintf("day %d:", day)) {
			t.Errorf("corrupt %s: Mount returned %v, want an error naming the role and day %d", c.role, err, day)
		}
		if body := get(t, s.Handler(), "/v1/timelines").Body.String(); strings.Contains(body, `"bad"`) {
			t.Errorf("corrupt %s: /v1/timelines lists the mount: %s", c.role, body)
		}
	}
}

// TestStreamBuildErrorRecord pins a mid-stream failure as a value: a
// metrics stream over a mount whose dataset build fails (a bit-flipped
// day inserted past Mount's validation) ends with a terminal error
// record naming the day, and is not counted as a cancellation.
func TestStreamBuildErrorRecord(t *testing.T) {
	s := newTestServer(t, Options{})
	full, view := testTimelines(t)
	bad := flipDayTag(t, full, 5)
	s.mu.Lock()
	s.mounts["bad"] = &Mount{Name: "bad", Full: bad, View: view, gen: s.mountGen.Add(1),
		ds: experiments.NewTimelineDataset(s.opts.Cfg, bad, view)}
	s.mu.Unlock()

	rec := get(t, s.Handler(), "/v1/stream/bad?metrics=all")
	if rec.Code != 200 {
		t.Fatalf("stream: %d %s", rec.Code, rec.Body.String())
	}
	rows, terminal := parseStream(t, rec.Body)
	if len(rows) != 0 || terminal == nil || !strings.Contains(terminal.Error, "day 5:") {
		t.Fatalf("%d rows, terminal %+v; want no rows and an error naming day 5", len(rows), terminal)
	}
	if got := s.met.streamsCanceled.Load(); got != 0 {
		t.Errorf("streams_canceled_total = %d, want 0 (a failure is not a cancel)", got)
	}
}

// TestStreamCancelMidBuild checks a metrics stream on a cold mount
// whose client is gone while the dataset builds: the stream unwinds
// and is counted as canceled, the build runs on to completion once,
// and later metrics streams read it without folding again.
func TestStreamCancelMidBuild(t *testing.T) {
	full, view := testTimelines(t)
	s := New(Options{Cfg: testConfig()})
	if err := s.Mount("cold", full, view); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stream/cold?metrics=all", nil).WithContext(ctx))
	if rows, terminal := parseStream(t, rec.Body); len(rows) != 0 || terminal != nil {
		t.Fatalf("canceled stream wrote %d rows, terminal %+v", len(rows), terminal)
	}
	if got := s.met.streamsCanceled.Load(); got != 1 {
		t.Errorf("streams_canceled_total = %d, want 1", got)
	}
	if n := s.ActiveStreams(); n != 0 {
		t.Errorf("%d streams active after cancel", n)
	}

	for i := 0; i < 2; i++ {
		rows, terminal := parseStream(t, get(t, h, "/v1/stream/cold?metrics=all").Body)
		if len(rows) != full.NumDays() || terminal == nil || !terminal.Done {
			t.Fatalf("stream %d after cancel: %d rows, terminal %+v", i+2, len(rows), terminal)
		}
		if got := s.simProg.Days(); got != int64(full.NumDays()) {
			t.Errorf("stream %d after cancel: %d fold days, want %d (one build)", i+2, got, full.NumDays())
		}
	}
}

// BenchmarkStreamRows pins per-row stream cost: one full NDJSON walk
// (summaries only) per iteration, reported as rows/s.
func BenchmarkStreamRows(b *testing.B) {
	h := benchHandler(b)
	const days = 12 // the bench timeline's length
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stream/gplus", nil))
		if rec.Code != 200 {
			b.Fatalf("stream: %d", rec.Code)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*days)/b.Elapsed().Seconds(), "rows/s")
}
