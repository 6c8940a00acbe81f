package experiments

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/gplus"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// qc is the shared quick config; the dataset behind it is cached, so
// the per-test cost after the first build is small.
func qc() Config { return QuickConfig() }

func TestAllRegisteredExperimentsRun(t *testing.T) {
	for _, id := range IDs() {
		fig, err := Run(id, qc())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if fig.ID == "" || fig.Title == "" {
			t.Errorf("%s: missing metadata: %+v", id, fig)
		}
		if len(fig.Series) == 0 && len(fig.Notes) == 0 {
			t.Errorf("%s: empty figure", id)
		}
		for _, s := range fig.Series {
			if len(s.X) != len(s.Y) {
				t.Errorf("%s series %q: |X| = %d, |Y| = %d", id, s.Name, len(s.X), len(s.Y))
			}
			for i := range s.Y {
				if math.IsNaN(s.Y[i]) || math.IsInf(s.Y[i], 0) {
					t.Errorf("%s series %q: Y[%d] = %v", id, s.Name, i, s.Y[i])
				}
			}
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("nope", qc()); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestDatasetCached(t *testing.T) {
	a := GetDataset(qc())
	b := GetDataset(qc())
	if a != b {
		t.Error("dataset should be cached per config")
	}
	if a.HalfView() == nil || a.FinalView() == nil {
		t.Fatal("dataset must retain halfway and final views")
	}
	if days := gplus.DefaultConfig().Days; len(a.Days()) != days {
		t.Errorf("recorded %d day metrics, want %d", len(a.Days()), days)
	}
}

func TestDatasetTimelinesBackMetrics(t *testing.T) {
	d := GetDataset(qc())
	if d.FullTimeline() == nil || d.ViewTimeline() == nil {
		t.Fatal("dataset must retain its packed timelines")
	}
	if days := gplus.DefaultConfig().Days; d.FullTimeline().NumDays() != days || d.ViewTimeline().NumDays() != days {
		t.Fatalf("timelines hold %d/%d days, want %d", d.FullTimeline().NumDays(), d.ViewTimeline().NumDays(), days)
	}
	// The recorded metrics must be reproducible from the store: the
	// final day's stats come from the reconstructed crawl view.
	last := d.Days()[len(d.Days())-1]
	view, err := d.ViewTimeline().ReconstructAt(d.ViewTimeline().NumDays() - 1)
	if err != nil {
		t.Fatal(err)
	}
	if view.Stats() != last.Stats {
		t.Errorf("reconstructed final-day stats %+v disagree with recorded metrics %+v", view.Stats(), last.Stats)
	}
	full, err := d.FullTimeline().ReconstructAt(d.FullTimeline().NumDays() - 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := full.Reciprocity(); got != last.Recip {
		t.Errorf("reconstructed final-day reciprocity %v, recorded %v", got, last.Recip)
	}
}

// eqNaN is float equality treating NaN == NaN (diameters are NaN on
// days they are not computed).
func eqNaN(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// TestTimelineDatasetMatchesSimulation is the one-build-path gate:
// GetDataset and a timeline-backed dataset over the same packed
// timelines must agree on every per-day record and on every registry
// figure, bit for bit.
func TestTimelineDatasetMatchesSimulation(t *testing.T) {
	sim := GetDataset(qc())
	tl := NewTimelineDataset(qc(), sim.FullTimeline(), sim.ViewTimeline())
	simDays, tlDays := sim.Days(), tl.Days()
	if len(tlDays) != len(simDays) {
		t.Fatalf("timeline dataset measured %d days, sim dataset %d", len(tlDays), len(simDays))
	}
	for i := range simDays {
		a, b := simDays[i], tlDays[i]
		// NaN-valued diameters break struct equality; compare them
		// NaN-aware and the rest exactly.
		ds, da := eqNaN(a.DiamSocial, b.DiamSocial), eqNaN(a.DiamAttr, b.DiamAttr)
		a.DiamSocial, a.DiamAttr = 0, 0
		b.DiamSocial, b.DiamAttr = 0, 0
		if a != b || !ds || !da {
			t.Fatalf("day %d metrics diverge:\nsim %+v\ntl  %+v", i+1, simDays[i], tlDays[i])
		}
	}
	for _, id := range IDs() {
		fromSim, err := RunOn(id, sim)
		if err != nil {
			t.Fatal(err)
		}
		fromTL, err := RunOn(id, tl)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameFigure(fromSim, fromTL); err != nil {
			t.Errorf("figure %s: GetDataset and timeline dataset diverge: %v", id, err)
		}
	}
}

// TestDatasetBuildIndependentOfGOMAXPROCS pins the fan-out of the
// cold pass to its schedule: a timeline dataset built and charted at
// GOMAXPROCS 1, 2 and 3 gives the same per-day records and the same
// bits in all registry figures.  An odd worker count splits the
// clustering estimators' probe chunks unevenly.  Each run keys the
// model caches apart with a Progress of its own, so every run
// generates its models.
func TestDatasetBuildIndependentOfGOMAXPROCS(t *testing.T) {
	sim := GetDataset(qc())
	type run struct {
		procs int
		days  []DayMetrics
		figs  []Figure
	}
	var runs []run
	for _, procs := range []int{1, 2, 3} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			cfg := qc()
			cfg.Progress = &obs.Progress{}
			ds := NewTimelineDataset(cfg, sim.FullTimeline(), sim.ViewTimeline())
			r := run{procs: procs, days: ds.Days()}
			for _, id := range IDs() {
				fig, err := RunOn(id, ds)
				if err != nil {
					t.Fatal(err)
				}
				r.figs = append(r.figs, fig)
			}
			runs = append(runs, r)
		}()
	}
	a := runs[0]
	for _, b := range runs[1:] {
		if len(a.days) != len(b.days) {
			t.Fatalf("%d days at GOMAXPROCS 1, %d at %d", len(a.days), len(b.days), b.procs)
		}
		for i := range a.days {
			if err := sameDayMetrics(a.days[i], b.days[i]); err != nil {
				t.Fatalf("day %d differs between GOMAXPROCS 1 and %d: %v", i+1, b.procs, err)
			}
		}
		for i, id := range IDs() {
			if err := sameFigure(a.figs[i], b.figs[i]); err != nil {
				t.Errorf("figure %s differs between GOMAXPROCS 1 and %d: %v", id, b.procs, err)
			}
		}
	}
}

// sameFigure reports the first difference between two figures,
// comparing every series value bitwise.
func sameFigure(a, b Figure) error {
	if a.ID != b.ID || a.Title != b.Title || !slices.Equal(a.Notes, b.Notes) {
		return fmt.Errorf("metadata or notes differ: %q %q %q vs %q %q %q", a.ID, a.Title, a.Notes, b.ID, b.Title, b.Notes)
	}
	if len(a.Series) != len(b.Series) {
		return fmt.Errorf("%d series vs %d", len(a.Series), len(b.Series))
	}
	bits := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	for i, s := range a.Series {
		o := b.Series[i]
		if s.Name != o.Name || !slices.Equal(bits(s.X), bits(o.X)) || !slices.Equal(bits(s.Y), bits(o.Y)) {
			return fmt.Errorf("series %q differs:\n%v %v\n%v %v", s.Name, s.X, s.Y, o.X, o.Y)
		}
	}
	return nil
}

func TestGrowthMonotone(t *testing.T) {
	fig := Fig2(GetDataset(qc()))
	for _, s := range fig.Series {
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] < s.Y[i-1] {
				t.Errorf("%s should be monotone: day %.0f %.0f -> day %.0f %.0f",
					s.Name, s.X[i-1], s.Y[i-1], s.X[i], s.Y[i])
			}
		}
	}
}

func TestFig4ReciprocityBand(t *testing.T) {
	fig := Fig4(GetDataset(qc()))
	var recip Series
	for _, s := range fig.Series {
		if s.Name == "reciprocity" {
			recip = s
		}
	}
	if len(recip.Y) == 0 {
		t.Fatal("missing reciprocity series")
	}
	last := recip.Y[len(recip.Y)-1]
	if last < 0.2 || last > 0.6 {
		t.Errorf("final reciprocity = %.3f, outside the Google+-like band", last)
	}
}

func TestFig13ReciprocityAttrEffect(t *testing.T) {
	// Aggregate per attribute class with link weights (the figure's
	// per-bin rates are too sparse at quick scale to average fairly).
	d := GetDataset(qc())
	buckets := metrics.FineGrainedReciprocity(d.HalfView(), d.FinalView(), 50)
	var links, recip [3]int
	for _, b := range buckets {
		links[b.CommonAttrs] += b.Links
		recip[b.CommonAttrs] += b.Reciprocated
	}
	if links[0] < 100 || links[1] < 20 {
		t.Skipf("too few one-directional links per class at quick scale: %v", links)
	}
	// Merge the 1 and >=2 classes (both "share attributes").
	shareLinks := links[1] + links[2]
	shareRecip := recip[1] + recip[2]
	r0 := float64(recip[0]) / float64(links[0])
	r1 := float64(shareRecip) / float64(shareLinks)
	// Fail only on a statistically significant inversion: the shared
	// class is small at quick scale, so require the deficit to exceed
	// two binomial standard errors.
	se := math.Sqrt(r0*(1-r0)/float64(shareLinks) + r0*(1-r0)/float64(links[0]))
	if r1 < r0-2*se {
		t.Errorf("shared-attribute reciprocity %.4f significantly below no-attribute %.4f (links %v)",
			r1, r0, links)
	}
}

func TestFig15AttributesCarrySignal(t *testing.T) {
	fig := Fig15(GetDataset(qc()))
	// The attribute term must help somewhere: some LAPA β > 0 cell
	// beats the β = 0 cell at the same α.  (At laptop scale community
	// granularity is coarse, so the paper's +6.1% at α=1, β=200
	// compresses toward small β; see EXPERIMENTS.md.)
	base := map[float64]float64{}
	for _, s := range fig.Series {
		if s.Name == "LAPA-beta=0" {
			for i, x := range s.X {
				base[x] = s.Y[i]
			}
		}
	}
	found := false
	for _, s := range fig.Series {
		if !strings.HasPrefix(s.Name, "LAPA-beta=") || s.Name == "LAPA-beta=0" {
			continue
		}
		for i, x := range s.X {
			if b, ok := base[x]; ok && s.Y[i] > b {
				found = true
			}
		}
	}
	if !found {
		t.Error("no LAPA cell with β>0 beats its β=0 baseline at any α")
	}
}

func TestFig16ModelContrast(t *testing.T) {
	fig := Fig16(GetDataset(qc()))
	var oursLognormal, zhelNotLognormal bool
	for _, n := range fig.Notes {
		if strings.HasPrefix(n, "ours-outdeg") && strings.Contains(n, "winner=lognormal") {
			oursLognormal = true
		}
		if strings.HasPrefix(n, "zhel-outdeg") && !strings.Contains(n, "winner=lognormal") {
			zhelNotLognormal = true
		}
	}
	if !oursLognormal {
		// At quick scale lifetime censoring can blur the verdict to
		// "inconclusive"; only a power-law classification is wrong.
		for _, n := range fig.Notes {
			if strings.HasPrefix(n, "ours-outdeg") && strings.Contains(n, "winner=power-law") {
				t.Error("our model's outdegree classified power-law; paper shows lognormal")
			}
		}
	}
	if !zhelNotLognormal {
		t.Error("Zhel's outdegree should not be classified lognormal")
	}
}

func TestFig19CurvesMonotone(t *testing.T) {
	fig := Fig19(GetDataset(qc()))
	for _, s := range fig.Series {
		if !strings.HasPrefix(s.Name, "sybil-") {
			continue
		}
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] < s.Y[i-1] {
				t.Errorf("%s not monotone: %v", s.Name, s.Y)
			}
		}
	}
}

func TestRenderOutput(t *testing.T) {
	fig := Figure{
		ID: "x", Title: "demo",
		Series: []Series{
			{Name: "a", X: []float64{1, 2}, Y: []float64{10, 20}},
			{Name: "b", X: []float64{2}, Y: []float64{5}},
		},
		Notes: []string{"note"},
	}
	out := Render(fig)
	for _, want := range []string{"demo", "# note", "a", "b", "10", "20", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q:\n%s", want, out)
		}
	}
}
