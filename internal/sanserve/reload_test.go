package sanserve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/gplus"
	"repro/internal/scenario"
	"repro/internal/snapstore"
)

// --- workspace fixtures -------------------------------------------

// wsSpec describes one scenario of a test workspace: its mount name,
// the pack seed (different seed = different timeline bytes = changed
// content digest), and the day count.
type wsSpec struct {
	name string
	seed uint64
	days int
}

// packedPair caches packed timeline pairs per (seed, days) so chaos
// swaps and their expected-bytes servers don't re-simulate.
var (
	packedMu   sync.Mutex
	packedTLs  = map[[2]uint64]*[2]*snapstore.Timeline{}
	packedErrs = map[[2]uint64]error{}
)

func packPair(t *testing.T, seed uint64, days int) (*snapstore.Timeline, *snapstore.Timeline) {
	t.Helper()
	key := [2]uint64{seed, uint64(days)}
	packedMu.Lock()
	defer packedMu.Unlock()
	if err := packedErrs[key]; err != nil {
		t.Fatal(err)
	}
	if p := packedTLs[key]; p != nil {
		return p[0], p[1]
	}
	cfg := gplus.DefaultConfig()
	cfg.DailyBase = 4
	cfg.Days = days
	cfg.Seed = seed
	full, view, err := gplus.New(cfg).RunTimelines(nil)
	if err == nil {
		packedTLs[key] = &[2]*snapstore.Timeline{full, view}
		return full, view
	}
	packedErrs[key] = err
	t.Fatal(err)
	return nil, nil
}

// writeWorkspace writes (or rewrites) a sweep-shaped workspace: one
// packed timeline pair per spec plus a manifest whose runs carry
// valid content digests, exactly like `sangen sweep` output.
func writeWorkspace(t *testing.T, dir string, specs []wsSpec) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	cfg := gplus.DefaultConfig()
	cfg.DailyBase = 4
	var runs []scenario.Run
	for _, sp := range specs {
		full, view := packPair(t, sp.seed, sp.days)
		run := scenario.Run{
			Scenario:     sp.name,
			Title:        "chaos " + sp.name,
			Seed:         sp.seed,
			ConfigDigest: fmt.Sprintf("seed-%d-days-%d", sp.seed, sp.days),
			Days:         full.NumDays(),
			FullFile:     sp.name + ".full.tl",
			ViewFile:     sp.name + ".view.tl",
			FullBytes:    full.Size(),
			ViewBytes:    view.Size(),
		}
		run.Digest = run.ContentDigest()
		if err := full.WriteFile(filepath.Join(dir, run.FullFile)); err != nil {
			t.Fatal(err)
		}
		if err := view.WriteFile(filepath.Join(dir, run.ViewFile)); err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run)
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].Scenario < runs[j].Scenario })
	data, err := json.Marshal(&scenario.Manifest{Version: 1, Scale: cfg.DailyBase, Runs: runs})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, scenario.ManifestFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func newWorkspaceServer(t *testing.T, dir string, opts Options) *Server {
	t.Helper()
	if opts.Cfg == (experiments.Config{}) {
		opts.Cfg = testConfig()
	}
	s := New(opts)
	if err := s.MountWorkspace(dir); err != nil {
		t.Fatal(err)
	}
	return s
}

func post(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", path, nil))
	return rec
}

// --- reload semantics ---------------------------------------------

func TestReloadKeepUpdateAddRemove(t *testing.T) {
	dir := t.TempDir()
	writeWorkspace(t, dir, []wsSpec{{"churn", 200, 8}, {"stable", 101, 8}})
	s := newWorkspaceServer(t, dir, Options{})
	h := s.Handler()

	// Warm both scenario caches.
	stable0 := get(t, h, "/v1/figures/2?timeline=stable")
	churn0 := get(t, h, "/v1/figures/2?timeline=churn")
	if stable0.Code != 200 || churn0.Code != 200 {
		t.Fatalf("warm requests: %d / %d", stable0.Code, churn0.Code)
	}

	// Swap: churn changes seed, stable unchanged, extra added.
	writeWorkspace(t, dir, []wsSpec{{"churn", 201, 8}, {"extra", 300, 8}, {"stable", 101, 8}})
	rec := post(t, h, "/v1/admin/reload")
	if rec.Code != 200 {
		t.Fatalf("reload: %d %s", rec.Code, rec.Body.String())
	}
	var rep ReloadReport
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%v/%v/%v/%v", rep.Kept, rep.Updated, rep.Added, rep.Removed) !=
		"[stable]/[churn]/[extra]/[]" {
		t.Fatalf("report: kept %v updated %v added %v removed %v", rep.Kept, rep.Updated, rep.Added, rep.Removed)
	}
	if !rep.Changed() {
		t.Error("Changed() must be true after an update")
	}

	// Unchanged scenario keeps its hot cache across the swap.
	if rec := get(t, h, "/v1/figures/2?timeline=stable"); rec.Header().Get("X-Cache") != "hit" {
		t.Errorf("stable lost its cache across reload (X-Cache %q)", rec.Header().Get("X-Cache"))
	}
	// Changed scenario serves fresh bytes — identical to a server that
	// mounted the new timelines from scratch.
	churn1 := get(t, h, "/v1/figures/2?timeline=churn")
	if churn1.Header().Get("X-Cache") != "miss" {
		t.Errorf("churn served pre-swap cache (X-Cache %q)", churn1.Header().Get("X-Cache"))
	}
	if churn1.Body.String() == churn0.Body.String() {
		t.Error("churn bytes unchanged after a seed change")
	}
	fresh := New(Options{Cfg: testConfig()})
	full, view := packPair(t, 201, 8)
	if err := fresh.Mount("churn", full, view); err != nil {
		t.Fatal(err)
	}
	want := get(t, fresh.Handler(), "/v1/figures/2?timeline=churn")
	if churn1.Body.String() != want.Body.String() {
		t.Error("post-swap churn bytes differ from a fresh mount of the new workspace")
	}
	// The added scenario serves.
	if rec := get(t, h, "/v1/figures/2?timeline=extra"); rec.Code != 200 {
		t.Errorf("added scenario: %d %s", rec.Code, rec.Body.String())
	}

	// Swap 2: remove churn entirely; a no-change reload reports so.
	writeWorkspace(t, dir, []wsSpec{{"extra", 300, 8}, {"stable", 101, 8}})
	if err := os.Remove(filepath.Join(dir, "churn.full.tl")); err != nil {
		t.Fatal(err)
	}
	rep2, err := s.ReloadWorkspace()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Removed) != 1 || rep2.Removed[0] != "churn" {
		t.Fatalf("removed: %v", rep2.Removed)
	}
	rep3, err := s.ReloadWorkspace()
	if err != nil {
		t.Fatal(err)
	}
	if rep3.Changed() {
		t.Fatalf("idle reload reports changes: %+v", rep3)
	}
	if len(rep3.Kept) != 2 {
		t.Fatalf("idle reload kept %v", rep3.Kept)
	}
}

// TestReloadPreservesPlainMounts: Mount()ed timelines are not
// workspace-managed and must survive reloads; a manifest trying to
// claim such a name is rejected wholesale.
func TestReloadPreservesPlainMounts(t *testing.T) {
	dir := t.TempDir()
	writeWorkspace(t, dir, []wsSpec{{"ws", 150, 8}})
	s := newWorkspaceServer(t, dir, Options{})
	full, view := testTimelines(t)
	if err := s.Mount("gplus", full, view); err != nil {
		t.Fatal(err)
	}

	writeWorkspace(t, dir, []wsSpec{{"ws", 151, 8}})
	if _, err := s.ReloadWorkspace(); err != nil {
		t.Fatal(err)
	}
	if rec := get(t, s.Handler(), "/v1/figures/2?timeline=gplus"); rec.Code != 200 {
		t.Fatalf("plain mount gone after reload: %d %s", rec.Code, rec.Body.String())
	}

	writeWorkspace(t, dir, []wsSpec{{"gplus", 152, 8}, {"ws", 151, 8}})
	if _, err := s.ReloadWorkspace(); err == nil ||
		!strings.Contains(err.Error(), "not workspace-managed") {
		t.Fatalf("manifest claiming a plain mount: err %v", err)
	}
}

// TestReloadErrorKeepsServing: a broken manifest fails the reload and
// leaves the previous mounts (and their caches) fully in service.
func TestReloadErrorKeepsServing(t *testing.T) {
	dir := t.TempDir()
	writeWorkspace(t, dir, []wsSpec{{"solo", 400, 8}})
	s := newWorkspaceServer(t, dir, Options{})
	h := s.Handler()
	if rec := get(t, h, "/v1/figures/2?timeline=solo"); rec.Code != 200 {
		t.Fatal(rec.Body.String())
	}

	manifest := filepath.Join(dir, scenario.ManifestFile)
	if err := os.WriteFile(manifest, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	rec := post(t, h, "/v1/admin/reload")
	if rec.Code != 500 {
		t.Fatalf("reload of corrupt manifest: %d %s", rec.Code, rec.Body.String())
	}
	if s.met.reloadErrors.Load() == 0 {
		t.Error("reload_errors_total not incremented")
	}
	if rec := get(t, h, "/v1/figures/2?timeline=solo"); rec.Code != 200 || rec.Header().Get("X-Cache") != "hit" {
		t.Fatalf("old mount degraded after failed reload: %d X-Cache %q", rec.Code, rec.Header().Get("X-Cache"))
	}

	// A server with no workspace at all answers 400, not 500.
	plain := newTestServer(t, Options{})
	if rec := post(t, plain.Handler(), "/v1/admin/reload"); rec.Code != 400 {
		t.Fatalf("reload without workspace: %d %s", rec.Code, rec.Body.String())
	}
}

// TestReloadLockDiscipline is the satellite regression test: a reload
// whose timeline loads are arbitrarily slow must not block /healthz
// or cached /v1/figures, because s.mu is never held across snapstore
// I/O.
func TestReloadLockDiscipline(t *testing.T) {
	dir := t.TempDir()
	writeWorkspace(t, dir, []wsSpec{{"slow", 500, 8}})
	s := newWorkspaceServer(t, dir, Options{})
	h := s.Handler()
	if rec := get(t, h, "/v1/figures/2?timeline=slow"); rec.Code != 200 {
		t.Fatal(rec.Body.String())
	}

	inLoad := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	orig := s.loadTimelines
	s.loadTimelines = func(dir string, run scenario.Run) (*snapstore.Timeline, *snapstore.Timeline, error) {
		once.Do(func() { close(inLoad) })
		<-release
		return orig(dir, run)
	}

	writeWorkspace(t, dir, []wsSpec{{"slow", 501, 8}})
	reloadDone := make(chan error, 1)
	go func() {
		_, err := s.ReloadWorkspace()
		reloadDone <- err
	}()
	<-inLoad // the reload is now stalled inside timeline I/O

	// Liveness probes and cached figure serving must complete promptly
	// while the load hangs.  The deadline is generous (the requests
	// are in-process byte copies); a held lock would hang forever.
	probes := make(chan string, 1)
	go func() {
		t0 := time.Now()
		if rec := get(t, h, "/healthz"); rec.Code != 200 {
			probes <- fmt.Sprintf("healthz during reload: %d", rec.Code)
			return
		}
		rec := get(t, h, "/v1/figures/2?timeline=slow")
		if rec.Code != 200 || rec.Header().Get("X-Cache") != "hit" {
			probes <- fmt.Sprintf("cached figure during reload: %d X-Cache %q", rec.Code, rec.Header().Get("X-Cache"))
			return
		}
		_ = t0
		probes <- ""
	}()
	select {
	case msg := <-probes:
		if msg != "" {
			t.Error(msg)
		}
	case <-time.After(10 * time.Second):
		t.Error("requests blocked behind a slow workspace load (s.mu held across I/O?)")
	}

	close(release)
	if err := <-reloadDone; err != nil {
		t.Fatalf("reload: %v", err)
	}
	if rec := get(t, h, "/v1/figures/2?timeline=slow"); rec.Header().Get("X-Cache") != "miss" {
		t.Errorf("updated mount still serving old cache (X-Cache %q)", rec.Header().Get("X-Cache"))
	}
}

// TestWatchWorkspace: the poller notices a manifest rewrite and swaps
// without any admin call.
func TestWatchWorkspace(t *testing.T) {
	dir := t.TempDir()
	writeWorkspace(t, dir, []wsSpec{{"watched", 600, 8}})
	s := newWorkspaceServer(t, dir, Options{})
	h := s.Handler()
	before := get(t, h, "/v1/figures/2?timeline=watched").Body.String()

	stop := s.WatchWorkspace(5 * time.Millisecond)
	defer stop()

	writeWorkspace(t, dir, []wsSpec{{"watched", 601, 8}})
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if after := get(t, h, "/v1/figures/2?timeline=watched").Body.String(); after != before {
			if s.met.reloads.Load() == 0 {
				t.Fatal("bytes changed without a recorded reload")
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("watcher never picked up the rewritten workspace")
}

// TestErrorBodiesAfterReload extends the error-table contract to
// requests racing a swap: a scenario that was just removed answers a
// clean 404 JSON body, and a day range valid only against the old
// (longer) timeline answers 400 — never a panic or an empty mount.
func TestErrorBodiesAfterReload(t *testing.T) {
	dir := t.TempDir()
	writeWorkspace(t, dir, []wsSpec{{"gone", 700, 8}, {"shrunk", 710, 8}})
	s := newWorkspaceServer(t, dir, Options{})
	h := s.Handler()
	// Warm both, including a range query near the end of the timeline.
	for _, p := range []string{
		"/v1/figures/2?timeline=gone",
		"/v1/figures/2?timeline=shrunk&days=7-8",
	} {
		if rec := get(t, h, p); rec.Code != 200 {
			t.Fatalf("%s: %d", p, rec.Code)
		}
	}

	// The swap removes "gone" and shortens "shrunk" to 6 days.
	writeWorkspace(t, dir, []wsSpec{{"shrunk", 711, 6}})
	if err := os.Remove(filepath.Join(dir, "gone.full.tl")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReloadWorkspace(); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		path string
		code int
		msg  string
	}{
		{"removed timeline", "/v1/figures/2?timeline=gone", 404, `unknown timeline "gone"`},
		{"removed from compare", "/v1/compare/2?scenarios=gone", 404, `unknown scenario "gone"`},
		{"removed snapshot stats", "/v1/snapshots/3/stats?timeline=gone", 404, `unknown timeline "gone"`},
		{"stale day range", "/v1/figures/2?timeline=shrunk&days=7-8", 400, "outside timeline [1,6]"},
		{"stale single day", "/v1/snapshots/8/stats?timeline=shrunk", 400, "outside timeline [1,6]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := get(t, h, tc.path)
			if rec.Code != tc.code {
				t.Fatalf("%s: got %d, want %d (%s)", tc.path, rec.Code, tc.code, rec.Body.String())
			}
			var body struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Fatalf("%s: error body is not JSON: %v (%s)", tc.path, err, rec.Body.String())
			}
			if !strings.Contains(body.Error, tc.msg) {
				t.Errorf("%s: error %q does not mention %q", tc.path, body.Error, tc.msg)
			}
		})
	}
	// The new 6-day shrunk timeline still serves in-range queries.
	if rec := get(t, h, "/v1/figures/2?timeline=shrunk&days=1-6"); rec.Code != 200 {
		t.Fatalf("shrunk in-range query: %d %s", rec.Code, rec.Body.String())
	}
}
