package sanserve

import (
	"crypto/sha256"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/scenario"
)

// This file is the hot-reload half of the service: re-reading the
// mounted workspace while serving, swapping the mount table
// atomically, and keeping the result cache honest across swaps.
//
// Lock discipline (the invariant every change here must preserve):
// s.mu is held only to snapshot or swap the mount-table map — never
// across manifest or snapstore I/O, dataset construction, or timeline
// validation.  A reload of an arbitrarily slow workspace must leave
// /healthz and cached /v1/figures latency untouched; reload_test.go
// pins this with a deliberately blocked loader.  reloadMu serializes
// whole reloads (watcher ticks vs. admin requests) so two concurrent
// reloads cannot interleave their swap steps.

// ReloadReport summarizes one workspace reload: which mounts were
// kept (unchanged content digest — mount and hot cache preserved),
// updated, added, or removed, and how many result-cache entries the
// post-swap purge dropped.
type ReloadReport struct {
	Workspace   string   `json:"workspace"`
	Kept        []string `json:"kept,omitempty"`
	Updated     []string `json:"updated,omitempty"`
	Added       []string `json:"added,omitempty"`
	Removed     []string `json:"removed,omitempty"`
	Invalidated int      `json:"invalidated_cache_entries"`
	ElapsedMS   int64    `json:"elapsed_ms"`
}

// Changed reports whether the reload altered the mount table at all.
func (r *ReloadReport) Changed() bool {
	return len(r.Updated)+len(r.Added)+len(r.Removed) > 0
}

// ReloadWorkspace re-reads the mounted workspace's manifest and
// atomically swaps the mount table to match it.  Runs whose content
// digest is unchanged keep their existing *Mount — and therefore
// their per-day tables, lazily-built dataset, and every hot result-
// cache entry.  Changed or new runs are loaded and validated in the
// background (no server lock held), then installed in one brief
// write-locked swap; removed runs drop out of the table and have
// their cache entries purged.  On any load error the previous mount
// table stays in service untouched.
//
// Mounts added through Mount()/MountFiles() are not workspace-managed
// and survive every reload.
func (s *Server) ReloadWorkspace() (*ReloadReport, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	return s.reloadLocked()
}

func (s *Server) reloadLocked() (*ReloadReport, error) {
	dir := s.workspaceDir
	if dir == "" {
		return nil, &statusError{http.StatusBadRequest,
			"no workspace mounted (start sanserve with -workspace to enable reload)"}
	}
	t0 := time.Now()
	sp := obs.StartSpan(s.logger, "reload", "workspace", dir)
	man, err := scenario.LoadManifest(dir)
	if err != nil {
		s.met.reloadErrors.Add(1)
		return nil, fmt.Errorf("sanserve: reload: %w", err)
	}

	// Snapshot the current table under a brief read lock; *Mount
	// values are immutable, so the copies stay valid lock-free.
	s.mu.RLock()
	current := make(map[string]*Mount, len(s.mounts))
	for name, m := range s.mounts {
		current[name] = m
	}
	s.mu.RUnlock()

	rep := &ReloadReport{Workspace: dir}
	next := make(map[string]*Mount, len(man.Runs))
	wanted := make(map[string]bool, len(man.Runs))
	for i := range man.Runs {
		run := man.Runs[i]
		wanted[run.Scenario] = true
		old := current[run.Scenario]
		if old != nil && old.Run == nil {
			s.met.reloadErrors.Add(1)
			return nil, fmt.Errorf("sanserve: reload: mount %q exists but is not workspace-managed", run.Scenario)
		}
		if old != nil && old.digest == run.ContentDigest() {
			next[run.Scenario] = old // unchanged: keep mount and hot cache
			rep.Kept = append(rep.Kept, run.Scenario)
			continue
		}
		// Changed or new: all I/O and validation happen here, with no
		// server lock held — requests keep serving the old table.
		full, view, err := s.loadTimelines(dir, run)
		if err != nil {
			s.met.reloadErrors.Add(1)
			return nil, fmt.Errorf("sanserve: reload: %w", err)
		}
		m, err := s.buildMount(run.Scenario, full, view, &run)
		if err != nil {
			s.met.reloadErrors.Add(1)
			return nil, fmt.Errorf("sanserve: reload: %w", err)
		}
		next[run.Scenario] = m
		if old != nil {
			rep.Updated = append(rep.Updated, run.Scenario)
		} else {
			rep.Added = append(rep.Added, run.Scenario)
		}
	}
	for name, m := range current {
		if wanted[name] {
			continue
		}
		if m.Run == nil {
			next[name] = m // plain mount: not workspace-managed
			continue
		}
		rep.Removed = append(rep.Removed, name)
	}

	// The atomic swap: one map assignment under the write lock.  From
	// here on, new requests resolve only next-table mounts; requests
	// that already resolved an old *Mount finish against its immutable
	// state and old-generation cache keys (see cacheKey).
	s.mu.Lock()
	s.mounts = next
	s.mu.Unlock()

	// Post-swap cache hygiene.  Correctness does not depend on this:
	// swapped-out generations are already unreachable.  Purging frees
	// their LRU slots immediately instead of waiting for eviction.
	for _, name := range rep.Updated {
		rep.Invalidated += s.cache.invalidateTimeline(name, next[name].gen)
	}
	for _, name := range rep.Removed {
		rep.Invalidated += s.cache.invalidateTimeline(name, 0)
	}
	sort.Strings(rep.Kept)
	sort.Strings(rep.Updated)
	sort.Strings(rep.Added)
	sort.Strings(rep.Removed)
	s.met.reloads.Add(1)
	rep.ElapsedMS = time.Since(t0).Milliseconds()
	sp.End()
	s.logger.Info("workspace reloaded",
		"kept", len(rep.Kept), "updated", len(rep.Updated),
		"added", len(rep.Added), "removed", len(rep.Removed),
		"invalidated", rep.Invalidated)
	return rep, nil
}

// handleReload is POST /v1/admin/reload: an explicit reload trigger
// for operators (and the chaos suite) who don't want to wait for the
// watcher tick.  Responds with the ReloadReport.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	rep, err := s.ReloadWorkspace()
	if err != nil {
		code := http.StatusInternalServerError
		var se *statusError
		if asStatusError(err, &se) {
			code = se.code
		}
		httpError(w, code, err.Error())
		return
	}
	writeJSON(w, rep)
}

// WatchWorkspace starts a background poller that re-reads the
// workspace manifest every interval and reloads when its bytes
// change (a sweep rewrites manifest.json last, after the timeline
// files).  A failed reload keeps the old mounts and retries on the
// next change of the manifest.  The returned stop function is
// idempotent and waits for the poller goroutine to exit.
func (s *Server) WatchWorkspace(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	done := make(chan struct{})
	exited := make(chan struct{})
	// The baseline hash is captured before the poller goroutine
	// starts: any manifest rewrite after WatchWorkspace returns is
	// guaranteed to be detected, however the goroutine is scheduled.
	last, _ := s.manifestSum()
	go func() {
		defer close(exited)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
			}
			sum, err := s.manifestSum()
			if err != nil || sum == last {
				continue // unreadable mid-rewrite or unchanged: wait
			}
			if _, err := s.ReloadWorkspace(); err != nil {
				// Old mounts stay mounted; last is NOT updated, so the
				// next tick retries (the sweep may still be writing).
				s.logger.Warn("workspace reload failed; serving previous mounts", "err", err)
				continue
			}
			last = sum
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		<-exited
	}
}

// manifestSum hashes the workspace manifest bytes — the watcher's
// cheap change detector (per-run digests decide what actually
// remounts).
func (s *Server) manifestSum() ([32]byte, error) {
	s.reloadMu.Lock()
	dir := s.workspaceDir
	s.reloadMu.Unlock()
	data, err := os.ReadFile(filepath.Join(dir, scenario.ManifestFile))
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(data), nil
}
