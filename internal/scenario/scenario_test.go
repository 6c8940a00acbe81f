package scenario

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gplus"
	"repro/internal/obs"
)

// smallBase is a laptop-instant base configuration every (non-phase)
// scenario can patch over.
func smallBase() gplus.Config {
	cfg := gplus.DefaultConfig()
	cfg.DailyBase = 4
	cfg.Days = 10
	cfg.Phase1End = 3
	cfg.Phase2End = 7
	cfg.Seed = 11
	return cfg
}

func TestRegistryResolvesAndValidates(t *testing.T) {
	names := Names()
	if len(names) < 5 {
		t.Fatalf("registry too small: %v", names)
	}
	if names[0] != "baseline" {
		t.Fatalf("baseline must come first, got %v", names)
	}
	base := gplus.DefaultConfig()
	digests := map[string]string{}
	for _, name := range names {
		s, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name != name || s.Title == "" {
			t.Errorf("scenario %q: bad metadata %+v", name, s)
		}
		cfg, err := s.Config(base)
		if err != nil {
			t.Fatalf("scenario %q does not resolve over the calibrated base: %v", name, err)
		}
		digests[name] = Digest(cfg)
	}
	// The baseline is the unpatched base; every other scenario must
	// actually change the configuration.
	if digests["baseline"] != Digest(base) {
		t.Error("baseline must digest identically to the unpatched base")
	}
	for name, d := range digests {
		if name != "baseline" && d == digests["baseline"] {
			t.Errorf("scenario %q digests like the baseline: patch is a no-op", name)
		}
	}
	if _, err := Get("no-such-scenario"); err == nil {
		t.Error("unknown scenario must error")
	}
}

// TestDigestsPinned freezes the config digest of every registered
// scenario over the calibrated base.  Workspace manifests carry these
// digests (sanserve reloads diff them via Run.ContentDigest), so a digest-format
// change would silently invalidate every existing workspace.
func TestDigestsPinned(t *testing.T) {
	want := map[string]string{
		"baseline":            "4f9dfcf5147a0e6b",
		"extended-invite":     "e18c9c7efd33aa2b",
		"no-triangle-closing": "624c95cbb913a699",
		"pa-first-link":       "6ab6fdb19ea9fed6",
		"rr-closing":          "49cf927ca835919f",
		"social-only":         "72861dd322e448db",
		"subscriber-heavy":    "85fa083636fdea06",
	}
	names := Names()
	if len(names) != len(want) {
		t.Errorf("registry has %d scenarios %v, pinned %d: pin the new digests", len(names), names, len(want))
	}
	for _, name := range names {
		s, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := s.Config(gplus.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if got := Digest(cfg); got != want[name] {
			t.Errorf("scenario %q: digest %s, pinned %q", name, got, want[name])
		}
	}
}

func TestPatchValidationRejectsBrokenConfigs(t *testing.T) {
	base := smallBase()
	for name, p := range map[string]Patch{
		"phase beyond horizon":   {Phase2End: ptr(99)},
		"inverted phases":        {Phase1End: ptr(9), Phase2End: ptr(4)},
		"subscriber frac > 1":    {SubscriberFrac: ptr([3]float64{0.2, 1.4, 0.2})},
		"celeb+subscriber > 1":   {CelebFrac: ptr(0.5), SubscriberFrac: ptr([3]float64{0.7, 0, 0})},
		"negative daily base":    {DailyBase: ptr(-3)},
		"bad attachment kind":    {Attachment: ptr(core.AttachKind(250))},
		"recip prob over 1":      {RecipProb: ptr([3]float64{2, 0, 0})},
		"attr prob out of range": {AttrProb: ptr(1.5)},
	} {
		if _, err := p.Apply(base); err == nil {
			t.Errorf("%s: patch applied without error", name)
		}
	}
	// The phase-schedule scenario is only valid on horizons that
	// contain it; resolution over a 10-day base must fail loudly.
	s, err := Get("extended-invite")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Config(base); err == nil {
		t.Error("extended-invite over a 10-day base must fail validation")
	}
}

func TestDigestIsOrderInsensitiveAndSensitive(t *testing.T) {
	a := gplus.DefaultConfig()
	b := gplus.DefaultConfig()
	if Digest(a) != Digest(b) {
		t.Fatal("equal configs must digest equally")
	}
	b.Beta = 201
	if Digest(a) == Digest(b) {
		t.Fatal("digest must see parameter changes")
	}
}

// sweepScenarios is the test sweep set: every ablation that is valid
// over the small base (the phase variant needs the full 98-day horizon).
var sweepScenarios = []string{
	"baseline", "pa-first-link", "rr-closing", "no-triangle-closing", "subscriber-heavy", "social-only",
}

func TestSweepProducesMountableWorkspace(t *testing.T) {
	dir := t.TempDir()
	m, err := Sweep(Options{Dir: dir, Scenarios: sweepScenarios, Base: smallBase(), Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Runs) != len(sweepScenarios) {
		t.Fatalf("manifest has %d runs, want %d", len(m.Runs), len(sweepScenarios))
	}
	for i := 1; i < len(m.Runs); i++ {
		if m.Runs[i-1].Scenario >= m.Runs[i].Scenario {
			t.Fatal("manifest runs must be sorted by scenario")
		}
	}

	loaded, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, loaded) {
		t.Fatal("manifest round trip diverged")
	}

	for _, r := range loaded.Runs {
		if r.Days != 10 || r.Seed != 11 || r.ConfigDigest == "" || r.Title == "" {
			t.Errorf("run %q: bad provenance %+v", r.Scenario, r)
		}
		full, view, err := loaded.Timelines(dir, r)
		if err != nil {
			t.Fatal(err)
		}
		if full.NumDays() != r.Days || view.NumDays() != r.Days {
			t.Errorf("run %q: timeline days %d/%d, manifest says %d",
				r.Scenario, full.NumDays(), view.NumDays(), r.Days)
		}
		g, err := full.ReconstructAt(full.NumDays() - 1)
		if err != nil {
			t.Fatalf("run %q: final day does not reconstruct: %v", r.Scenario, err)
		}
		if g.NumSocial() != r.SocialNodes || g.NumSocialEdges() != r.SocialLinks {
			t.Errorf("run %q: manifest stats %d/%d disagree with reconstruction %d/%d",
				r.Scenario, r.SocialNodes, r.SocialLinks, g.NumSocial(), g.NumSocialEdges())
		}
		// The manifest digest must reproduce from the registry + base.
		s, err := Get(r.Scenario)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := s.Config(smallBase())
		if err != nil {
			t.Fatal(err)
		}
		if got := Digest(cfg); got != r.ConfigDigest {
			t.Errorf("run %q: digest %s, recomputed %s", r.Scenario, r.ConfigDigest, got)
		}
	}

	// Scenarios share the seed but differ mechanically: the ablations
	// must produce structurally different networks than the baseline.
	base, _ := loaded.Run("baseline")
	for _, name := range []string{"pa-first-link", "no-triangle-closing", "social-only"} {
		r, ok := loaded.Run(name)
		if !ok {
			t.Fatalf("missing run %q", name)
		}
		if r.SocialNodes == base.SocialNodes && r.SocialLinks == base.SocialLinks {
			t.Errorf("scenario %q produced the same network shape as baseline (%d nodes / %d links)",
				name, r.SocialNodes, r.SocialLinks)
		}
	}
}

func TestSweepIsDeterministic(t *testing.T) {
	run := func(dir string) *Manifest {
		t.Helper()
		m, err := Sweep(Options{Dir: dir, Scenarios: []string{"baseline", "social-only"}, Base: smallBase(), Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for i := range m.Runs {
			m.Runs[i].ElapsedMS = 0 // wall time is the only nondeterministic field
		}
		return m
	}
	a := run(t.TempDir())
	b := run(t.TempDir())
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("sweeps diverged:\n%+v\n%+v", a, b)
	}
}

func TestSweepRejectsBadInputsBeforeSimulating(t *testing.T) {
	dir := t.TempDir()
	if _, err := Sweep(Options{Dir: dir, Scenarios: []string{"baseline", "nope"}, Base: smallBase()}); err == nil {
		t.Fatal("unknown scenario must fail the sweep")
	}
	// Duplicate names would race on one workspace file pair and
	// produce an unmountable manifest; resolution must reject them.
	if _, err := Sweep(Options{Dir: dir, Scenarios: []string{"baseline", "baseline"}, Base: smallBase()}); err == nil {
		t.Fatal("duplicate scenario must fail the sweep")
	}
	// Nothing may have been written: resolution happens before work.
	if _, err := LoadManifest(dir); err == nil {
		t.Fatal("failed sweep must not leave a manifest")
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "*.tl"))
	if len(matches) != 0 {
		t.Fatalf("failed sweep left timelines behind: %v", matches)
	}
}

func TestLoadManifestRejectsCorruptWorkspaces(t *testing.T) {
	if _, err := LoadManifest(t.TempDir()); err == nil {
		t.Error("empty dir must not load")
	}
}

// TestSweepCtxCancel checks the cancelable sweep: a canceled context
// must abort in-flight simulations at a day boundary, feed no further
// scenarios, surface context.Canceled, and write no manifest.
func TestSweepCtxCancel(t *testing.T) {
	dir := t.TempDir()

	// Pre-canceled: nothing runs at all.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SweepCtx(ctx, Options{Dir: dir, Scenarios: []string{"baseline"}, Base: smallBase()}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled sweep: %v, want context.Canceled", err)
	}

	// Mid-run: cancel once the day counter proves a simulation is in
	// flight.  The run is long enough that it cannot complete before
	// the cancellation lands, and the single worker proves the feeder
	// stops handing out scenarios.
	long := smallBase()
	long.Days = 2000
	prog := &obs.Progress{}
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := SweepCtx(ctx, Options{
			Dir: dir, Scenarios: []string{"baseline", "social-only"},
			Base: long, Workers: 1, Obs: prog,
		})
		done <- err
	}()
	deadline := time.After(10 * time.Second)
	for prog.Days() == 0 {
		select {
		case <-deadline:
			t.Fatal("sweep never simulated a day")
		case err := <-done:
			t.Fatalf("sweep finished before cancellation: %v", err)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled sweep: %v, want context.Canceled", err)
	}
	if _, err := os.Stat(filepath.Join(dir, ManifestFile)); !os.IsNotExist(err) {
		t.Errorf("canceled sweep left a manifest (stat err: %v)", err)
	}
}
