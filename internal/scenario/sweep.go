package scenario

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/atomicio"
	"repro/internal/gplus"
	"repro/internal/obs"
	"repro/internal/san"
	"repro/internal/snapstore"
)

// ManifestFile is the workspace index file name.
const ManifestFile = "manifest.json"

// PairFiles names the packed timeline pair of one run from a path
// prefix: PREFIX.full.tl for the full SAN and PREFIX.view.tl for its
// crawl view.  Workspace runs and `sangen -stream-out` both use it.
func PairFiles(prefix string) (full, view string) {
	return prefix + ".full.tl", prefix + ".view.tl"
}

// manifestVersion guards against future layout changes.
const manifestVersion = 1

// Run records one completed scenario simulation inside a workspace:
// provenance (seed, config digest), the packed timeline files, and
// headline pack statistics.
type Run struct {
	Scenario     string `json:"scenario"`
	Title        string `json:"title"`
	Seed         uint64 `json:"seed"`
	ConfigDigest string `json:"config_digest"`

	Days        int `json:"days"`
	SocialNodes int `json:"social_nodes"` // final day
	SocialLinks int `json:"social_links"`
	AttrNodes   int `json:"attr_nodes"`
	AttrLinks   int `json:"attr_links"`

	FullFile  string `json:"full_file"` // relative to the workspace dir
	ViewFile  string `json:"view_file"`
	FullBytes int    `json:"full_bytes"`
	ViewBytes int    `json:"view_bytes"`

	// Digest is ContentDigest() recorded at sweep time: a checksum of
	// the provenance fields above.  ParseManifest rejects a manifest
	// whose stored digest disagrees with a recomputation (a hand-edited
	// or corrupted manifest); empty means an older manifest without one.
	Digest string `json:"digest,omitempty"`

	ElapsedMS int64 `json:"elapsed_ms"`
}

// ContentDigest is a short stable hash of everything that determines
// one run's packed timeline bytes: which scenario, which resolved
// configuration and seed, and the pack statistics of the result.  The
// serving layer's hot reload compares digests between the mounted
// manifest and a re-read one to decide which mounts actually changed
// (and therefore which result-cache entries to invalidate) — an
// unchanged run keeps its mount and its hot cache.  Timing fields
// (ElapsedMS) and display fields (Title) are deliberately excluded.
func (r Run) ContentDigest() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%d\x00%d\x00%d,%d,%d,%d\x00%s\x00%s\x00%d,%d",
		r.Scenario, r.ConfigDigest, r.Seed, r.Days,
		r.SocialNodes, r.SocialLinks, r.AttrNodes, r.AttrLinks,
		r.FullFile, r.ViewFile, r.FullBytes, r.ViewBytes)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Manifest indexes a sweep workspace.  Runs are sorted by scenario
// name, so manifests of identical sweeps are byte-comparable.
type Manifest struct {
	Version int   `json:"version"`
	Scale   int   `json:"scale"` // base DailyBase the sweep ran at
	Runs    []Run `json:"runs"`
}

// Run resolves one entry by scenario name.
func (m *Manifest) Run(name string) (Run, bool) {
	for _, r := range m.Runs {
		if r.Scenario == name {
			return r, true
		}
	}
	return Run{}, false
}

// Options configures a sweep.
type Options struct {
	// Dir is the workspace directory; it is created if missing.
	Dir string
	// Scenarios are registry names to run; empty means every built-in
	// scenario.
	Scenarios []string
	// Base is the configuration scenarios patch over; a zero Days
	// means gplus.DefaultConfig().
	Base gplus.Config
	// Workers bounds simulation concurrency (0 = GOMAXPROCS).
	Workers int
	// Progress, when set, is called as each scenario finishes.
	Progress func(Run)
	// Obs, when set, receives live day-by-day counters from every
	// worker's simulator (days simulated, nodes/links created, deltas
	// packed) — the `sangen sweep -progress` ticker and sanserve's
	// sanserve_sim_* gauges read it while the sweep runs.
	Obs *obs.Progress
}

// Sweep simulates every requested scenario in parallel, packs each
// run's full and crawl-view timelines into the workspace directory,
// and writes (and returns) the manifest.  Each scenario runs with the
// base seed unless its patch overrides it, so a sweep is one
// controlled experiment: identical arrivals-randomness, different
// mechanisms.
func Sweep(opts Options) (*Manifest, error) {
	return SweepCtx(context.Background(), opts)
}

// SweepCtx is Sweep with cancellation: a canceled ctx stops feeding
// new scenarios to the workers and aborts each in-flight simulation at
// its next day boundary (partial timeline files are cleaned up by the
// stream writers' abort path).  No manifest is written on
// cancellation; the returned error is ctx's.
func SweepCtx(ctx context.Context, opts Options) (*Manifest, error) {
	base := opts.Base
	if base.Days == 0 {
		base = gplus.DefaultConfig()
	}
	names := opts.Scenarios
	if len(names) == 0 {
		names = Names()
	}
	// Resolve and validate every scenario before simulating anything:
	// a typo in the last name must not waste the first N simulations.
	cfgs := make([]gplus.Config, len(names))
	scens := make([]Scenario, len(names))
	seen := make(map[string]bool, len(names))
	for i, name := range names {
		if seen[name] {
			return nil, fmt.Errorf("scenario: %q requested twice (scenario names are workspace file stems and must be unique)", name)
		}
		seen[name] = true
		s, err := Get(name)
		if err != nil {
			return nil, err
		}
		cfg, err := s.Config(base)
		if err != nil {
			return nil, err
		}
		scens[i], cfgs[i] = s, cfg
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("scenario: creating workspace: %w", err)
	}
	if opts.Obs != nil {
		for _, cfg := range cfgs {
			opts.Obs.AddTotalDays(cfg.Days)
		}
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(names) {
		workers = len(names)
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex // guards runs, errs, Progress calls
		runs []Run
		errs []error
		jobs = make(chan int)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One scratch arena per worker: scenarios drain through the
			// same goroutine sequentially, so attacher/closing buffers
			// are reused across runs instead of re-allocated per
			// scenario.  Arenas are never shared across workers.
			scratch := gplus.NewScratch()
			for i := range jobs {
				if ctx.Err() != nil {
					continue // drain the queue without simulating
				}
				run, err := runOne(ctx, opts.Dir, scens[i], cfgs[i], scratch, opts.Obs)
				mu.Lock()
				if err != nil {
					errs = append(errs, err)
				} else {
					runs = append(runs, run)
					if opts.Progress != nil {
						opts.Progress(run)
					}
				}
				mu.Unlock()
			}
		}()
	}
feed:
	for i := range names {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}

	sort.Slice(runs, func(i, j int) bool { return runs[i].Scenario < runs[j].Scenario })
	m := &Manifest{Version: manifestVersion, Scale: base.DailyBase, Runs: runs}
	if err := writeManifest(opts.Dir, m); err != nil {
		return nil, err
	}
	return m, nil
}

// runOne simulates a single scenario and streams its timelines to the
// workspace as they are packed (each worker's resident memory is its
// live SAN plus one day's records, never two whole timelines), reusing
// the worker's scratch arena across scenarios.
func runOne(ctx context.Context, dir string, s Scenario, cfg gplus.Config, scratch *gplus.Scratch, prog *obs.Progress) (Run, error) {
	start := time.Now()
	sim := gplus.NewWithScratch(cfg, scratch)
	sim.Progress = prog
	run := Run{
		Scenario:     s.Name,
		Title:        s.Title,
		Seed:         cfg.Seed,
		ConfigDigest: Digest(cfg),
	}
	run.FullFile, run.ViewFile = PairFiles(s.Name)
	full, err := snapstore.NewStreamWriter(filepath.Join(dir, run.FullFile))
	if err != nil {
		return Run{}, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	defer full.Abort()
	view, err := snapstore.NewStreamWriter(filepath.Join(dir, run.ViewFile))
	if err != nil {
		return Run{}, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	defer view.Abort()
	// The per-day hook polls ctx, so a canceled sweep abandons this
	// simulation at the next day boundary instead of running it out.
	perDay := func(int, *san.SAN, *san.SAN) error { return ctx.Err() }
	if err := sim.StreamTimelines(1, 0, full, view, perDay); err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return Run{}, err
		}
		return Run{}, fmt.Errorf("scenario %q: packing: %w", s.Name, err)
	}
	run.Days = full.NumDays()
	run.SocialNodes = sim.G.NumSocial()
	run.SocialLinks = sim.G.NumSocialEdges()
	run.AttrNodes = sim.G.NumAttrs()
	run.AttrLinks = sim.G.NumAttrEdges()
	run.FullBytes = full.PackedBytes()
	run.ViewBytes = view.PackedBytes()
	if err := full.Finalize(); err != nil {
		return Run{}, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if err := view.Finalize(); err != nil {
		return Run{}, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	run.Digest = run.ContentDigest()
	run.ElapsedMS = time.Since(start).Milliseconds()
	return run, nil
}

func writeManifest(dir string, m *Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	// Atomic temp+rename: a sweep re-run over a live workspace must
	// never leave a half-written manifest for a concurrent reader
	// (sanserve hot reload) to trip over.
	return atomicio.WriteFile(filepath.Join(dir, ManifestFile), func(w io.Writer) error {
		_, err := w.Write(append(data, '\n'))
		return err
	})
}

// ParseManifest decodes and validates manifest bytes without touching
// the filesystem (the fuzz target for the workspace format).  It
// rejects wrong versions, empty or duplicated run lists, path-escaping
// timeline file names, nonsensical day counts, and runs whose stored
// digest disagrees with a recomputation from the provenance fields —
// and never panics on arbitrary input.
func ParseManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("scenario: corrupt manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("scenario: manifest version %d (this build reads %d)", m.Version, manifestVersion)
	}
	if len(m.Runs) == 0 {
		return nil, fmt.Errorf("scenario: manifest lists no runs")
	}
	seen := make(map[string]bool, len(m.Runs))
	for _, r := range m.Runs {
		if r.Scenario == "" {
			return nil, fmt.Errorf("scenario: manifest lists a run with no scenario name")
		}
		if seen[r.Scenario] {
			return nil, fmt.Errorf("scenario: manifest lists %q twice", r.Scenario)
		}
		seen[r.Scenario] = true
		if r.Days <= 0 {
			return nil, fmt.Errorf("scenario: run %q: invalid day count %d", r.Scenario, r.Days)
		}
		for _, f := range []string{r.FullFile, r.ViewFile} {
			if f == "" || f != filepath.Base(f) || f == "." || f == ".." {
				return nil, fmt.Errorf("scenario: run %q: invalid timeline file name %q", r.Scenario, f)
			}
		}
		if r.Digest != "" && r.Digest != r.ContentDigest() {
			return nil, fmt.Errorf("scenario: run %q: manifest digest %q does not match its provenance fields (recomputed %q)",
				r.Scenario, r.Digest, r.ContentDigest())
		}
	}
	return &m, nil
}

// LoadManifest reads a workspace manifest and sanity-checks it against
// the files on disk.
func LoadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		return nil, fmt.Errorf("scenario: not a sweep workspace: %w", err)
	}
	m, err := ParseManifest(data)
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, dir)
	}
	for _, r := range m.Runs {
		for _, f := range []string{r.FullFile, r.ViewFile} {
			if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
				return nil, fmt.Errorf("scenario: run %q: %w", r.Scenario, err)
			}
		}
	}
	return m, nil
}

// Timelines loads one run's packed timeline pair from a workspace
// directory.
func Timelines(dir string, r Run) (full, view *snapstore.Timeline, err error) {
	if full, err = snapstore.LoadFile(filepath.Join(dir, r.FullFile)); err != nil {
		return nil, nil, fmt.Errorf("scenario: run %q: %w", r.Scenario, err)
	}
	if view, err = snapstore.LoadFile(filepath.Join(dir, r.ViewFile)); err != nil {
		return nil, nil, fmt.Errorf("scenario: run %q: %w", r.Scenario, err)
	}
	return full, view, nil
}

// Timelines loads one run's packed timeline pair from the workspace.
func (m *Manifest) Timelines(dir string, r Run) (full, view *snapstore.Timeline, err error) {
	return Timelines(dir, r)
}
