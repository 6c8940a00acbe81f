package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
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
	m := measureDaySampled(cfg, day, full, view, (*san.SAN).SocialNeighbors)
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

// TestDatasetBuildResume pins the cancellation contract for both
// timeline sources: a caller whose context is canceled gets
// context.Canceled back at once, while the build it started runs on
// to completion exactly once for the concurrent callers that follow —
// the Progress day count proves no day was folded (or simulated)
// twice — and ends bitwise-identical to an uncanceled twin.
func TestDatasetBuildResume(t *testing.T) {
	cfg := goldenConfig()
	control := GetDataset(cfg)
	wantDays := control.Days()
	n := int64(len(wantDays))
	for _, tc := range []struct {
		name     string
		dataset  func(Config) *Dataset
		progress int64 // days reported: folded, plus simulated for sim
	}{
		{"timeline", func(c Config) *Dataset {
			return NewTimelineDataset(c, control.FullTimeline(), control.ViewTimeline())
		}, n},
		// A private handle (not GetDataset) so the shared cache is not
		// involved.
		{"sim", func(c Config) *Dataset { return &Dataset{Cfg: c, pack: simulateTimelines} }, 2 * n},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := &obs.Progress{}
			rcfg := cfg
			rcfg.Progress = prog
			ds := tc.dataset(rcfg)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if err := ds.Build(ctx); !errors.Is(err, context.Canceled) {
				t.Fatalf("Build with a canceled context: %v, want context.Canceled", err)
			}
			var wg sync.WaitGroup
			errs := make([]error, 4)
			for i := range errs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[i] = ds.Build(context.Background())
				}()
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			got := ds.Days()
			if len(got) != len(wantDays) {
				t.Fatalf("build measured %d days, want %d", len(got), len(wantDays))
			}
			for i := range got {
				if err := sameDayMetrics(got[i], wantDays[i]); err != nil {
					t.Fatalf("day %d: build diverges from the control: %v", i+1, err)
				}
			}
			if got := prog.Days(); got != tc.progress {
				t.Errorf("progress counted %d days, want %d (one build, every day once)", got, tc.progress)
			}
			for _, snap := range []struct {
				name      string
				got, want *san.SAN
			}{
				{"halfway view", ds.HalfView(), control.HalfView()},
				{"final view", ds.FinalView(), control.FinalView()},
				{"final full SAN", ds.FinalFull(), control.FinalFull()},
			} {
				if !bytes.Equal(snapstore.EncodeSnapshot(snap.got, nil), snapstore.EncodeSnapshot(snap.want, nil)) {
					t.Errorf("%s differs from the control", snap.name)
				}
			}
		})
	}
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
		return snapstore.EncodeSnapshot(g, nil)
	}
	wantHalf := reconstruct(view, halfDay(view.NumDays()))
	wantFinalView := reconstruct(view, view.NumDays()-1)
	wantFinalFull := reconstruct(full, full.NumDays()-1)
	for name, ds := range map[string]*Dataset{"sim": sim, "timeline": NewTimelineDataset(cfg, full, view)} {
		if !bytes.Equal(snapstore.EncodeSnapshot(ds.HalfView(), nil), wantHalf) {
			t.Errorf("%s: halfway view differs from the reconstructed day", name)
		}
		if !bytes.Equal(snapstore.EncodeSnapshot(ds.FinalView(), nil), wantFinalView) {
			t.Errorf("%s: final view differs from the reconstructed day", name)
		}
		if !bytes.Equal(snapstore.EncodeSnapshot(ds.FinalFull(), nil), wantFinalFull) {
			t.Errorf("%s: final full SAN differs from the reconstructed day", name)
		}
	}
}

// TestEmptyTimelineDatasetPanics pins the zero-day outcome: Build
// returns one named error instead of leaving nil snapshots for the
// figure drivers to dereference, and every accessor panics with it.
func TestEmptyTimelineDatasetPanics(t *testing.T) {
	const msg = "experiments: timeline has no days"
	empty := snapstore.NewLive().Timeline()
	ds := NewTimelineDataset(goldenConfig(), empty, nil)
	if err := ds.Build(context.Background()); err == nil || err.Error() != msg {
		t.Fatalf("Build: %v, want %q", err, msg)
	}
	want := "experiments: building dataset: " + msg
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

// corruptDay returns a copy of tl whose day record (0-based) has one
// bit of its tag byte flipped, so the copy loads but that day fails to
// decode.
func corruptDay(t *testing.T, tl *snapstore.Timeline, day int) *snapstore.Timeline {
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

// TestCorruptDayBuildError pins the error path of the fold: a day
// record that fails to decode makes Build return an error naming that
// day — the same error on every later call — and no panic escapes.
func TestCorruptDayBuildError(t *testing.T) {
	control := GetDataset(goldenConfig())
	const day = 5
	ds := NewTimelineDataset(goldenConfig(), corruptDay(t, control.FullTimeline(), day), control.ViewTimeline())
	defer func() {
		if v := recover(); v != nil {
			t.Fatalf("Build panicked: %v", v)
		}
	}()
	err := ds.Build(context.Background())
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("day %d:", day)) {
		t.Fatalf("Build: %v, want an error naming day %d", err, day)
	}
	if again := ds.Build(context.Background()); again != err {
		t.Errorf("second Build: %v, want the same error %v", again, err)
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
