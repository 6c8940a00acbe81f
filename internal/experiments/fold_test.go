package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/san"
	"repro/internal/snapstore"
	"repro/internal/stats"
)

// sameDayMetrics compares two per-day records field by field, treating
// NaN as equal to NaN (diameters off-schedule, degenerate early-day
// fits).  Everything else must match bitwise: the fold path is
// advertised as producing *identical* metrics, not merely close ones.
func sameDayMetrics(a, b DayMetrics) error {
	if a.Day != b.Day || a.Stats != b.Stats {
		return fmt.Errorf("day/stats diverge: %+v vs %+v", a, b)
	}
	fields := []struct {
		name string
		x, y float64
	}{
		{"Recip", a.Recip, b.Recip},
		{"SocialDensity", a.SocialDensity, b.SocialDensity},
		{"AttrDensity", a.AttrDensity, b.AttrDensity},
		{"Assort", a.Assort, b.Assort},
		{"AttrAssort", a.AttrAssort, b.AttrAssort},
		{"CC", a.CC, b.CC},
		{"AttrCC", a.AttrCC, b.AttrCC},
		{"MuOut", a.MuOut, b.MuOut},
		{"SigmaOut", a.SigmaOut, b.SigmaOut},
		{"MuIn", a.MuIn, b.MuIn},
		{"SigmaIn", a.SigmaIn, b.SigmaIn},
		{"MuAttrDeg", a.MuAttrDeg, b.MuAttrDeg},
		{"SigmaAttrDeg", a.SigmaAttrDeg, b.SigmaAttrDeg},
		{"AlphaAttrSocial", a.AlphaAttrSocial, b.AlphaAttrSocial},
		{"DiamSocial", a.DiamSocial, b.DiamSocial},
		{"DiamAttr", a.DiamAttr, b.DiamAttr},
	}
	for _, f := range fields {
		if !eqNaN(f.x, f.y) {
			return fmt.Errorf("%s: %v vs %v", f.name, f.x, f.y)
		}
	}
	return nil
}

// measureDay is the reference measurement the fold is pinned against:
// the full per-day metric record from one day's cold full SAN and crawl
// view, extracting every degree sample from the graph instead of the
// fold's accumulators.  stats.LogMomentsHist and stats.FitPowerLawHist
// guarantee the two agree bitwise.
func measureDay(cfg Config, day int, full, view *san.SAN) DayMetrics {
	m := measureDaySampled(cfg, day, full, view, nil)
	m.MuOut, m.SigmaOut = stats.LogMoments(metrics.OutDegrees(full))
	m.MuIn, m.SigmaIn = stats.LogMoments(metrics.InDegrees(full))
	m.MuAttrDeg, m.SigmaAttrDeg = stats.LogMoments(metrics.AttrDegrees(view))
	m.AlphaAttrSocial = stats.FitPowerLawFixedXmin(metrics.AttrSocialDegrees(view), 1).Alpha
	return m
}

// recomputeDayMetrics is the oracle for the whole fold: it walks both
// timelines day by day with ReconstructAt and ApplyDay (no cursor, no
// DayFolder) and measures every day with measureDay.
func recomputeDayMetrics(t *testing.T, cfg Config, fullTL, viewTL *snapstore.Timeline) []DayMetrics {
	t.Helper()
	full, err := fullTL.ReconstructAt(0)
	if err != nil {
		t.Fatal(err)
	}
	view, err := viewTL.ReconstructAt(0)
	if err != nil {
		t.Fatal(err)
	}
	days := make([]DayMetrics, fullTL.NumDays())
	for i := range days {
		if i > 0 {
			if err := fullTL.ApplyDay(full, i); err != nil {
				t.Fatal(err)
			}
			if err := viewTL.ApplyDay(view, i); err != nil {
				t.Fatal(err)
			}
		}
		days[i] = measureDay(cfg, i+1, full, view)
	}
	return days
}

// TestFoldMatchesRecompute is the fold's equivalence gate: the
// incremental walk must produce exactly the per-day metrics the
// sequential snapshot-recompute oracle produces, diameters included.
func TestFoldMatchesRecompute(t *testing.T) {
	cfg := goldenConfig() // diameters every 6 days, exercised cheaply
	ds := GetDataset(cfg)
	foldDays := ds.Days()

	recDays := recomputeDayMetrics(t, cfg, ds.FullTimeline(), ds.ViewTimeline())
	if len(recDays) != len(foldDays) {
		t.Fatalf("recompute measured %d days, fold %d", len(recDays), len(foldDays))
	}
	for i := range foldDays {
		if err := sameDayMetrics(recDays[i], foldDays[i]); err != nil {
			t.Fatalf("day %d: fold diverges from recompute: %v", i+1, err)
		}
	}
}

// countdownCtx cancels itself after a fixed number of Err checks —
// a deterministic stand-in for a client disconnecting mid-build.
// Build polls Err once on entry and the cursor once per day, so the
// countdown positions the cancellation at an exact day boundary.
type countdownCtx struct {
	context.Context
	checks int
}

func (c *countdownCtx) Err() error {
	if c.checks <= 0 {
		return context.Canceled
	}
	c.checks--
	return nil
}

// TestDatasetBuildResume is the resumability gate for both timeline
// sources: cancel a build mid-fold (several times, at different
// days), resume it to completion, and require the result to be
// bitwise-identical to an uninterrupted twin.  The Progress day count
// additionally proves no day was ever measured twice.
func TestDatasetBuildResume(t *testing.T) {
	cfg := goldenConfig()
	control := GetDataset(cfg)
	wantDays := control.Days()

	t.Run("timeline", func(t *testing.T) {
		prog := &obs.Progress{}
		rcfg := cfg
		rcfg.Progress = prog
		ds := NewTimelineDataset(rcfg, control.FullTimeline(), control.ViewTimeline())
		cancels := 0
		for _, checks := range []int{3, 11, 1} {
			err := ds.Build(&countdownCtx{Context: context.Background(), checks: checks})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("Build with countdown %d: %v, want context.Canceled", checks, err)
			}
			cancels++
		}
		if err := ds.Build(context.Background()); err != nil {
			t.Fatal(err)
		}
		got := ds.Days()
		if len(got) != len(wantDays) {
			t.Fatalf("resumed build measured %d days, want %d", len(got), len(wantDays))
		}
		for i := range got {
			if err := sameDayMetrics(got[i], wantDays[i]); err != nil {
				t.Fatalf("day %d: resumed build diverges: %v", i+1, err)
			}
		}
		if n := prog.Days(); n != int64(len(wantDays)) {
			t.Errorf("progress counted %d folded days over %d cancels, want %d (no day re-measured)",
				n, cancels, len(wantDays))
		}
		if ds.HalfView().Stats() != control.HalfView().Stats() {
			t.Errorf("halfway views diverge: %+v vs %+v", ds.HalfView().Stats(), control.HalfView().Stats())
		}
		if ds.FinalFull().Stats() != control.FinalFull().Stats() {
			t.Errorf("final full SANs diverge: %+v vs %+v", ds.FinalFull().Stats(), control.FinalFull().Stats())
		}
	})

	t.Run("sim", func(t *testing.T) {
		// A private handle (not GetDataset) so the shared cache never
		// holds a half-built dataset.
		prog := &obs.Progress{}
		rcfg := cfg
		rcfg.Progress = prog
		ds := &Dataset{Cfg: rcfg, pack: simulateTimelines}
		// The in-memory pack does not poll ctx, so every cancel lands in
		// the fold: the first Build packs the timelines and stops four
		// days into measuring them.
		for _, checks := range []int{5, 40, 1} {
			err := ds.Build(&countdownCtx{Context: context.Background(), checks: checks})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("Build with countdown %d: %v, want context.Canceled", checks, err)
			}
			if ds.full == nil || ds.fold == nil {
				t.Fatalf("cancel with countdown %d did not land in the fold", checks)
			}
		}
		if err := ds.Build(context.Background()); err != nil {
			t.Fatal(err)
		}
		got := ds.Days()
		if len(got) != len(wantDays) {
			t.Fatalf("resumed sim build measured %d days, want %d", len(got), len(wantDays))
		}
		for i := range got {
			if err := sameDayMetrics(got[i], wantDays[i]); err != nil {
				t.Fatalf("day %d: resumed sim build diverges: %v", i+1, err)
			}
		}
		if n := prog.Days(); n != 2*int64(len(wantDays)) {
			t.Errorf("progress counted %d days, want %d (each day simulated once and folded once)",
				n, 2*len(wantDays))
		}
		if ds.HalfView().Stats() != control.HalfView().Stats() {
			t.Errorf("halfway views diverge: %+v vs %+v", ds.HalfView().Stats(), control.HalfView().Stats())
		}
		if ds.FinalFull().Stats() != control.FinalFull().Stats() {
			t.Errorf("final full SANs diverge: %+v vs %+v", ds.FinalFull().Stats(), control.FinalFull().Stats())
		}
	})
}

// TestRecomputeDatasetMatchesFold checks the snapshots the fold
// captures in passing — the halfway and final crawl views and the final
// full SAN — byte-for-byte against ReconstructAt on the same timelines,
// for both GetDataset and a timeline-backed dataset.
func TestRecomputeDatasetMatchesFold(t *testing.T) {
	cfg := goldenConfig()
	sim := GetDataset(cfg)
	full, view := sim.FullTimeline(), sim.ViewTimeline()
	reconstruct := func(tl *snapstore.Timeline, day int) []byte {
		g, err := tl.ReconstructAt(day)
		if err != nil {
			t.Fatal(err)
		}
		return snapstore.EncodeSnapshot(g)
	}
	wantHalf := reconstruct(view, halfDay(view.NumDays()))
	wantFinalView := reconstruct(view, view.NumDays()-1)
	wantFinalFull := reconstruct(full, full.NumDays()-1)
	for name, ds := range map[string]*Dataset{"sim": sim, "timeline": NewTimelineDataset(cfg, full, view)} {
		if !bytes.Equal(snapstore.EncodeSnapshot(ds.HalfView()), wantHalf) {
			t.Errorf("%s: halfway view differs from the reconstructed day", name)
		}
		if !bytes.Equal(snapstore.EncodeSnapshot(ds.FinalView()), wantFinalView) {
			t.Errorf("%s: final view differs from the reconstructed day", name)
		}
		if !bytes.Equal(snapstore.EncodeSnapshot(ds.FinalFull()), wantFinalFull) {
			t.Errorf("%s: final full SAN differs from the reconstructed day", name)
		}
	}
}

// TestEmptyTimelineDatasetPanics pins the zero-day outcome: the build
// fails with one named panic instead of leaving nil snapshots for the
// figure drivers to dereference.
func TestEmptyTimelineDatasetPanics(t *testing.T) {
	const want = "experiments: timeline has no days"
	empty := snapstore.NewLive().Timeline()
	ds := NewTimelineDataset(goldenConfig(), empty, nil)
	for _, access := range []func(){func() { ds.Days() }, func() { ds.HalfView() }} {
		func() {
			defer func() {
				if v := recover(); v != want {
					t.Errorf("panic %v, want %q", v, want)
				}
			}()
			access()
		}()
	}
}

// BenchmarkRender pins the figure-table renderer: a dense figure (many
// series sharing many X values) used to pay a linear series scan per
// cell.
func BenchmarkRender(b *testing.B) {
	fig := Figure{ID: "bench", Title: "dense"}
	const points = 600
	for s := 0; s < 12; s++ {
		sr := Series{Name: fmt.Sprintf("s%d", s)}
		for p := 0; p < points; p++ {
			sr.X = append(sr.X, float64(p))
			sr.Y = append(sr.Y, math.Sqrt(float64(s*p)))
		}
		fig.Series = append(fig.Series, sr)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := Render(fig)
		if !strings.Contains(out, "dense") {
			b.Fatal("bad render")
		}
	}
}
