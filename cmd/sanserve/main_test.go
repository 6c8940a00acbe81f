package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gplus"
	"repro/internal/scenario"
)

// syncBuffer is the stderr run logs to while the test reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// server is one run serving on a free loopback port.
type server struct {
	base   string
	log    *syncBuffer
	cancel context.CancelFunc
	done   chan int
	client *http.Client
	sent   atomic.Int64 // requests issued through get
	once   sync.Once
	code   int
}

var listenRe = regexp.MustCompile(`msg=listening addr=(\S+)`)

// start runs sanserve with args plus -addr 127.0.0.1:0 and waits for
// its "listening" line; the server is stopped at test cleanup.
func start(t *testing.T, conns int, args ...string) *server {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	s := &server{
		log:    &syncBuffer{},
		cancel: cancel,
		done:   make(chan int, 1),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: conns}},
	}
	args = append([]string{"-addr", "127.0.0.1:0"}, args...)
	go func() { s.done <- run(ctx, args, s.log) }()
	t.Cleanup(func() { s.stop() })
	deadline := time.After(60 * time.Second)
	for {
		if m := listenRe.FindStringSubmatch(s.log.String()); m != nil {
			s.base = "http://" + m[1]
			return s
		}
		select {
		case code := <-s.done:
			s.done <- code // for the cleanup's stop
			t.Fatalf("run exited %d before listening:\n%s", code, s.log)
		case <-deadline:
			t.Fatalf("no listening line:\n%s", s.log)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// stop cancels run's context, as SIGINT does, and returns its exit
// code.
func (s *server) stop() int {
	s.once.Do(func() {
		s.cancel()
		s.code = <-s.done
		s.client.CloseIdleConnections()
	})
	return s.code
}

// get issues one request and returns its status, Retry-After header
// and body.
func (s *server) get(t *testing.T, path string) (int, string, []byte) {
	t.Helper()
	s.sent.Add(1)
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		t.Errorf("GET %s: %v", path, err)
		return 0, "", nil
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Errorf("GET %s: reading body: %v", path, err)
	}
	return resp.StatusCode, resp.Header.Get("Retry-After"), body
}

// waitMetrics polls /metrics until every want line prefix is present
// (the analytics histograms fold asynchronously) and returns the page.
func (s *server) waitMetrics(t *testing.T, want ...string) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, _, body := s.get(t, "/metrics")
		page := string(body)
		missing := ""
		for _, w := range want {
			if !regexp.MustCompile(`(?m)^` + w).MatchString(page) {
				missing = w
				break
			}
		}
		if missing == "" {
			return page
		}
		if time.Now().After(deadline) {
			t.Fatalf("/metrics never matched %q:\n%s", missing, page)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// timelineDays is the day count of the single-file fixture.
const timelineDays = 98

// Fixtures are packed once per test binary.
var (
	tlOnce sync.Once
	tlPath string
	tlErr  error

	wsOnce sync.Once
	wsDir  string
	wsErr  error

	fixtureDir string
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "sanserve-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fixtureDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// timelineFile packs a scale-40, 98-day full timeline, seed 7, the
// file `sanstore pack -scale 40 -seed 7` writes.
func timelineFile(t *testing.T) string {
	t.Helper()
	tlOnce.Do(func() {
		cfg := gplus.DefaultConfig()
		cfg.DailyBase = 40
		cfg.Days = timelineDays
		cfg.Seed = 7
		full, _, err := gplus.New(cfg).RunTimelines(nil)
		if err != nil {
			tlErr = err
			return
		}
		tlPath = filepath.Join(fixtureDir, "gplus.tl")
		tlErr = full.WriteFile(tlPath)
	})
	if tlErr != nil {
		t.Fatal(tlErr)
	}
	return tlPath
}

// workspaceDir sweeps the baseline and pa-first-link scenarios at
// scale 30, seed 7, as `sangen sweep -scale 30 -seed 7` does.
func workspaceDir(t *testing.T) string {
	t.Helper()
	wsOnce.Do(func() {
		base := gplus.DefaultConfig()
		base.DailyBase = 30
		base.Seed = 7
		wsDir = filepath.Join(fixtureDir, "ws")
		_, wsErr = scenario.Sweep(scenario.Options{
			Dir:       wsDir,
			Scenarios: []string{"baseline", "pa-first-link"},
			Base:      base,
		})
	})
	if wsErr != nil {
		t.Fatal(wsErr)
	}
	return wsDir
}

// TestExitCodes pins run's exit codes.  Usage errors exit 2 before
// anything is mounted: their mount names a missing file, which would
// otherwise exit 1.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing.tl")
	garbage := filepath.Join(dir, "garbage.tl")
	if err := os.WriteFile(garbage, []byte("not a timeline\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"help", []string{"-h"}, 0},
		{"no mount", nil, 2},
		{"malformed mount", []string{"-mount", "gplus"}, 2},
		{"empty mount path", []string{"-mount", "gplus="}, 2},
		{"unknown flag", []string{"-loadgen", "-mount", "g=" + missing}, 2},
		{"bad log format", []string{"-log", "xml", "-mount", "g=" + missing}, 2},
		{"reload without workspace", []string{"-reload-interval", "1s", "-mount", "g=" + missing}, 2},
		{"missing timeline", []string{"-mount", "g=" + missing}, 1},
		{"unreadable timeline", []string{"-mount", "g=" + garbage}, 1},
		{"missing workspace", []string{"-workspace", filepath.Join(dir, "nows")}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stderr syncBuffer
			if got := run(context.Background(), tc.args, &stderr); got != tc.want {
				t.Errorf("run(%q) = %d, want %d; stderr:\n%s", tc.args, got, tc.want, stderr.String())
			}
			if tc.want == 2 && strings.Contains(stderr.String(), "mounting") {
				t.Errorf("usage error reached a mount:\n%s", stderr.String())
			}
		})
	}
}

// TestMetricsAfterFigureLoad drives concurrent cached figure requests
// at a single-file mount and checks that /metrics exposes the
// analytics pipeline counters, the figures request-duration histogram
// and its p99 gauge.
func TestMetricsAfterFigureLoad(t *testing.T) {
	const workers, perWorker = 8, 40
	s := start(t, workers, "-mount", "gplus="+timelineFile(t))
	if code, _, body := s.get(t, "/v1/figures/2?timeline=gplus"); code != 200 {
		t.Fatalf("warm figure: %d %s", code, body)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if code, _, body := s.get(t, "/v1/figures/2?timeline=gplus"); code != 200 {
					t.Errorf("figure request: %d %s", code, body)
					return
				}
			}
		}()
	}
	wg.Wait()
	s.waitMetrics(t,
		`sanserve_analytics_dropped_total `,
		`sanserve_analytics_recorded_total `,
		`sanserve_request_duration_seconds_bucket\{endpoint="figures"`,
		`sanserve_request_latency_seconds\{endpoint="figures",quantile="0.99"\}`,
	)
	if code := s.stop(); code != 0 {
		t.Errorf("exit %d after shutdown", code)
	}
}

// TestShedUnderOverload serves a two-scenario workspace with build
// concurrency 1 and drives one warmed figure path mixed with five cold
// ones from 8 clients for one second: cold requests must shed (429 +
// Retry-After) rather than queue, nothing else may fail, and the
// cached path's p99 must stay within 250 ms.  Clients 4 and 5 open on
// the two pa-first-link figures, which both wait on that scenario's
// dataset build, so one of them always meets a held build slot.
func TestShedUnderOverload(t *testing.T) {
	const (
		workers  = 8
		dur      = time.Second
		p99Bound = 250 * time.Millisecond
	)
	paths := []string{
		"/v1/figures/2?timeline=baseline",
		"/v1/figures/3?timeline=baseline",
		"/v1/figures/4?timeline=baseline",
		"/v1/figures/6?timeline=baseline",
		"/v1/figures/3?timeline=pa-first-link",
		"/v1/figures/4?timeline=pa-first-link",
	}
	s := start(t, workers, "-workspace", workspaceDir(t), "-max-builds", "1")
	if code, _, body := s.get(t, paths[0]); code != 200 {
		t.Fatalf("warm %s: %d %s", paths[0], code, body)
	}

	var (
		mu     sync.Mutex
		cached []time.Duration
		shed   int
		wg     sync.WaitGroup
	)
	stop := time.Now().Add(dur)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; time.Now().Before(stop); i++ {
				p := i % len(paths)
				t0 := time.Now()
				code, retry, body := s.get(t, paths[p])
				lat := time.Since(t0)
				mu.Lock()
				switch {
				case code == 200:
					if p == 0 {
						cached = append(cached, lat)
					}
				case code == http.StatusTooManyRequests && retry != "":
					shed++
				default:
					t.Errorf("%s: %d (Retry-After %q) %s", paths[p], code, retry, body)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	if shed == 0 {
		t.Error("no cold request was shed (want >= 1 429 with Retry-After)")
	}
	if len(cached) == 0 {
		t.Fatal("no cached request completed")
	}
	sort.Slice(cached, func(i, j int) bool { return cached[i] < cached[j] })
	p99 := cached[int(0.99*float64(len(cached)-1))]
	t.Logf("%d cached requests (p99 %v), %d shed", len(cached), p99, shed)
	if p99 > p99Bound {
		t.Errorf("cached-path p99 %v exceeds %v", p99, p99Bound)
	}
	page := s.waitMetrics(t, `sanserve_shed_total [1-9]`, `sanserve_max_builds 1$`, `sanserve_builds_admitted_total [1-9]`)
	if t.Failed() {
		t.Log(page)
	}
}

// streamWalk reads one NDJSON stream and returns its day-row count and
// its final line.
func streamWalk(t *testing.T, s *server, path string) (rows int, last string) {
	t.Helper()
	code, _, body := s.get(t, path)
	if code != 200 {
		t.Errorf("GET %s: %d %s", path, code, body)
		return 0, ""
	}
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		if strings.HasPrefix(line, `{"day"`) {
			rows++
		}
		last = line
	}
	return rows, last
}

// TestConcurrentStreamWalks runs full /v1/stream walks from four
// clients at once on a single-file mount; every walk must carry one row
// per day and end in the done record.
func TestConcurrentStreamWalks(t *testing.T) {
	const workers, walks = 4, 5
	s := start(t, workers, "-mount", "gplus="+timelineFile(t))
	want := fmt.Sprintf(`{"done":true,"rows":%d}`, timelineDays)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < walks; i++ {
				rows, last := streamWalk(t, s, "/v1/stream/gplus")
				if rows != timelineDays || last != want {
					t.Errorf("walk: %d rows ending %q, want %d rows ending %s", rows, last, timelineDays, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	s.waitMetrics(t, fmt.Sprintf(`sanserve_streams_total %d$`, workers*walks), `sanserve_stream_rows_total [1-9]`)
}

var byeRe = regexp.MustCompile(`msg=bye analytics_recorded=(\d+) analytics_dropped=(\d+)`)

// TestShutdownMidStream cancels run's context while a paced stream is
// in flight: the client must get the terminal error record, run must
// exit 0, and every request sent must be accounted for as recorded or
// dropped, with one audit row per recorded request.
func TestShutdownMidStream(t *testing.T) {
	audit := filepath.Join(t.TempDir(), "audit.ndjson")
	s := start(t, 2, "-mount", "gplus="+timelineFile(t), "-audit", audit)
	for _, r := range []struct {
		path string
		code int
	}{{"/healthz", 200}, {"/v1/timelines", 200}, {"/v1/snapshots/3/stats", 200}, {"/v1/snapshots/3/stats", 200}, {"/v1/figures/nope", 404}} {
		if code, _, body := s.get(t, r.path); code != r.code {
			t.Fatalf("GET %s: %d %s, want %d", r.path, code, body, r.code)
		}
	}

	s.sent.Add(1)
	resp, err := s.client.Get(s.base + "/v1/stream/gplus?pace=200")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := bufio.NewScanner(resp.Body)
	if !lines.Scan() || !strings.HasPrefix(lines.Text(), `{"day"`) {
		t.Fatalf("first stream line %q (%v)", lines.Text(), lines.Err())
	}
	code := make(chan int, 1)
	go func() { code <- s.stop() }()

	var last string
	for lines.Scan() {
		last = lines.Text()
	}
	var term struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal([]byte(last), &term); err != nil || term.Error == "" {
		t.Errorf("stream ended with %q, want a terminal {\"error\": ...} record", last)
	}
	if c := <-code; c != 0 {
		t.Fatalf("exit %d after shutdown:\n%s", c, s.log)
	}

	m := byeRe.FindStringSubmatch(s.log.String())
	if m == nil {
		t.Fatalf("no bye line:\n%s", s.log)
	}
	recorded, _ := strconv.Atoi(m[1])
	dropped, _ := strconv.Atoi(m[2])
	if got := int64(recorded + dropped); got != s.sent.Load() {
		t.Errorf("recorded %d + dropped %d = %d, want %d requests", recorded, dropped, got, s.sent.Load())
	}
	data, err := os.ReadFile(audit)
	if err != nil {
		t.Fatal(err)
	}
	if rows := bytes.Count(data, []byte("\n")); rows != recorded {
		t.Errorf("audit file holds %d rows, bye line says %d recorded", rows, recorded)
	}
}
