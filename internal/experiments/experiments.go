// Package experiments regenerates every figure of the paper's
// measurement and evaluation sections on the simulated Google+
// dataset.  Each figure has a driver returning a Figure (named data
// series plus notes); the cmd/sanbench binary and the repository-root
// benchmarks print them.
//
// One measured dataset (Dataset) is shared by all of the measurement
// figures; model-comparison figures generate their own SANs from the
// core and zhel generators.  A dataset is a pair of packed snapstore
// timelines — simulated in memory by GetDataset, or mounted from disk
// by NewTimelineDataset — and every per-day metric and figure snapshot
// comes from one incremental walk over them, so sanbench and a server
// mounting the same timelines print the same figures.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strings"
	"sync"

	"repro/internal/gplus"
	"repro/internal/hll"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/san"
	"repro/internal/snapstore"
	"repro/internal/stats"
)

// Config scales the experiments.  Scale is the gplus DailyBase (the
// paper's 30M-user crawl maps to laptop-scale thousands); ModelT is
// the arrival count for generated model SANs.
type Config struct {
	Scale     int
	ModelT    int
	Seed      uint64
	DiamEvery int   // compute diameters every k-th day
	HLLBits   uint8 // HyperANF precision

	// Progress, when set, receives day-by-day counts from dataset
	// builds: simulation days from the instrumented gplus run, and
	// folded measurement days from the incremental walk.  Serving
	// layers expose the same counters as gauges (sanserve_sim_*), so a
	// first-touch dataset build is observable while it runs.  Purely
	// observational: it never changes what is measured.
	Progress *obs.Progress
}

// DefaultConfig is the full experiment scale (~20k users).
func DefaultConfig() Config {
	return Config{Scale: 400, ModelT: 20000, Seed: 42, DiamEvery: 7, HLLBits: 7}
}

// QuickConfig is a reduced scale for tests and benchmarks.
func QuickConfig() Config {
	return Config{Scale: 100, ModelT: 4000, Seed: 42, DiamEvery: 14, HLLBits: 6}
}

// Series is one plotted curve: paired X/Y values.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is the output of one experiment driver.
type Figure struct {
	ID     string
	Title  string
	Series []Series
	Notes  []string
}

// DayMetrics is the per-day measurement record of the evolving SAN,
// covering every time-series figure (2, 3, 4, 6, 7b, 8, 11, 12b).
type DayMetrics struct {
	Day   int
	Stats san.Stats

	Recip         float64
	SocialDensity float64
	AttrDensity   float64
	Assort        float64
	AttrAssort    float64
	CC            float64
	AttrCC        float64

	MuOut, SigmaOut         float64
	MuIn, SigmaIn           float64
	MuAttrDeg, SigmaAttrDeg float64
	AlphaAttrSocial         float64

	DiamSocial float64 // NaN when not computed this day
	DiamAttr   float64 // NaN when not computed this day
}

// Dataset is the "crawled dataset" of this reproduction: per-day
// metrics plus the halfway and final snapshots every figure driver
// reads.  A Dataset is a lazy handle — construction is free, and the
// backing work runs once on first access.  There is one build: fold
// a packed timeline pair forward (measureTimelines), capturing the
// per-day records and the figure snapshots on the way.  The two
// constructors differ only in where the timelines come from:
//
//   - GetDataset packs them in memory from one instrumented gplus
//     simulation (the batch path: sanbench and the golden figures).
//   - NewTimelineDataset takes an injected pair (the serving path:
//     sanserve mounts .tl files and answers figures without
//     re-simulating).
//
// Drivers receive a *Dataset and pull only what they need, so model
// figures (16-18) never force a dataset build at all.
type Dataset struct {
	Cfg Config

	// pack, set by GetDataset only, produces the timeline pair; the
	// build calls it first.
	pack func(Config) (full, view *snapstore.Timeline, err error)

	once sync.Once
	done chan struct{} // closed when the build has finished
	err  error         // the build's outcome, readable once done is closed

	days      []DayMetrics
	full      *snapstore.Timeline // packed daily full SANs (day d at index d-1)
	view      *snapstore.Timeline // packed daily crawl views
	halfView  *san.SAN            // crawl view at day 49 (the halfway snapshot)
	finalView *san.SAN            // crawl view at the last day
	finalFull *san.SAN            // full SAN at the last day
}

// Build waits for the dataset's build, starting it on the first call.
// The build runs once, on its own goroutine, to completion: ctx bounds
// only this caller's wait, so a canceled caller gets ctx.Err() back at
// once while the build keeps going for whoever asks next.  Once the
// build has finished, every call returns its outcome — nil, or the
// same error (a zero-day or corrupt timeline, a packing failure) for
// the dataset's lifetime — and accessors read their fields without
// further work.
func (d *Dataset) Build(ctx context.Context) error {
	d.once.Do(func() {
		d.done = make(chan struct{})
		go d.build()
	})
	select {
	case <-d.done:
		return d.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// build obtains the timelines and folds them, storing the outcome in
// d.err.  A panic (a bug, not an input error) becomes that error too,
// so no caller ever reads half-built fields.
func (d *Dataset) build() {
	defer close(d.done)
	defer func() {
		if v := recover(); v != nil {
			d.err = fmt.Errorf("experiments: dataset build panicked: %v", v)
		}
	}()
	if d.pack != nil {
		if d.full, d.view, d.err = d.pack(d.Cfg); d.err != nil {
			return
		}
	}
	d.err = measureTimelines(d)
}

// force completes the build for an accessor.  context.Background never
// cancels, so an error here is a real build failure.
func (d *Dataset) force() {
	if err := d.Build(context.Background()); err != nil {
		panic(fmt.Sprintf("experiments: building dataset: %v", err))
	}
}

// Days returns the per-day metric records (index i is day i+1).
func (d *Dataset) Days() []DayMetrics { d.force(); return d.days }

// FullTimeline returns the packed timeline of daily full SANs.
func (d *Dataset) FullTimeline() *snapstore.Timeline { d.force(); return d.full }

// ViewTimeline returns the packed timeline of daily crawl views.
func (d *Dataset) ViewTimeline() *snapstore.Timeline { d.force(); return d.view }

// HalfView returns the crawl view at the halfway snapshot (day 49, or
// the middle day of shorter timelines).
func (d *Dataset) HalfView() *san.SAN { d.force(); return d.halfView }

// FinalView returns the crawl view at the last day.
func (d *Dataset) FinalView() *san.SAN { d.force(); return d.finalView }

// FinalFull returns the full SAN (hidden attributes included) at the
// last day.
func (d *Dataset) FinalFull() *san.SAN { d.force(); return d.finalFull }

var (
	dsMu    sync.Mutex
	dsCache = map[Config]*Dataset{}
)

// GetDataset returns the (cached, lazily built) dataset of the
// instrumented simulation run for cfg.
func GetDataset(cfg Config) *Dataset {
	dsMu.Lock()
	defer dsMu.Unlock()
	if d, ok := dsCache[cfg]; ok {
		return d
	}
	d := &Dataset{Cfg: cfg, pack: simulateTimelines}
	dsCache[cfg] = d
	return d
}

// simulateTimelines runs the instrumented gplus simulation for cfg
// once and packs it in memory: the daily full-SAN and crawl-view
// timelines (this reproduction's equivalent of the 79 daily crawl
// files).
func simulateTimelines(cfg Config) (full, view *snapstore.Timeline, err error) {
	gcfg := gplus.DefaultConfig()
	gcfg.DailyBase = cfg.Scale
	gcfg.Seed = cfg.Seed
	sim := gplus.New(gcfg)
	if p := cfg.Progress; p != nil {
		sim.Progress = p
		p.AddTotalDays(gcfg.Days)
	}
	full, view, err = sim.RunTimelines(nil)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: packing timelines: %w", err)
	}
	return full, view, nil
}

// NeedsDataset reports whether figure id forces a dataset build.
// Model-comparison figures (16-18) and the triadic-closure census
// generate their own SANs from the configured generators and never
// touch the measured dataset — a server can answer them while the
// dataset is still building (or was never built at all).
func NeedsDataset(id string) bool { return !modelOnly[id] }

var modelOnly = map[string]bool{"16": true, "17": true, "18": true, "tc": true}

// NewTimelineDataset returns a Dataset backed by already-packed
// timelines instead of a simulation: full is the daily full-SAN
// timeline and view the daily crawl-view timeline (view may be nil to
// reuse full for both roles, e.g. when only one .tl file is mounted;
// otherwise both timelines must cover the same number of days, and at
// least one).  The build folds the timelines forward incrementally —
// one evolving SAN per role, exact metrics from delta-updated
// accumulators; nothing is ever re-simulated.
//
// Build returns an error, and accessors panic, if a day fails to
// decode or the timelines have no days; callers serving untrusted
// files should validate the timelines once up front (decode every
// day) before handing them to drivers.
func NewTimelineDataset(cfg Config, full, view *snapstore.Timeline) *Dataset {
	if view == nil {
		view = full
	}
	return &Dataset{Cfg: cfg, full: full, view: view}
}

// halfDay returns the 0-based index of the halfway crawl: 1-based day
// 49 (the paper's), or the middle day of shorter timelines.
func halfDay(numDays int) int {
	half := 48
	if last := numDays - 1; half > last {
		half = last / 2
	}
	return half
}

// measureTimelines, the only dataset build, fills ds.days and the
// halfway and final snapshots.  It is the incremental path:
// one cursor walk over the timeline pair maintains an evolving SAN per
// role plus exact accumulators (degree histograms, via each day's
// Delta) in O(new structure) per day.  Whole-graph counters
// (reciprocity, densities, size stats) are O(1) reads off the evolving
// SANs, degree moments and the attribute power-law exponent come from
// the folded histograms, and only the paper's sampled estimators
// (clustering, assortativity, diameters) still run against the day's
// graph — with the clustering estimator served by a delta-invalidated
// neighbor cache (DayFolder packages the per-day step; sanserve's
// live streams share it).  Sampled estimators get a per-day rng,
// so the measurement of a day does not depend on evaluation order.
//
// The walk runs to completion: Build decouples it from its callers'
// contexts, so it never stops partway.  A zero-day timeline or a day
// that fails to decode is returned as the build's error.
func measureTimelines(ds *Dataset) error {
	numDays := ds.full.NumDays()
	if numDays == 0 {
		return errors.New("experiments: timeline has no days")
	}
	half, last := halfDay(numDays), numDays-1
	sameView := ds.view == ds.full
	tls := []*snapstore.Timeline{ds.full}
	if !sameView {
		tls = append(tls, ds.view)
	}
	if p := ds.Cfg.Progress; p != nil {
		p.AddTotalDays(numDays)
	}

	cur, err := snapstore.OpenCursorN(tls)
	if err != nil {
		return fmt.Errorf("experiments: folding timelines: %w", err)
	}
	defer cur.Close()
	folder := NewDayFolder(ds.Cfg)
	days := make([]DayMetrics, numDays)
	for {
		day, gs, deltas, err := cur.Next(context.Background())
		if err == snapstore.ErrDone {
			break
		}
		if err != nil {
			return fmt.Errorf("experiments: folding timelines: %w", err)
		}
		full, fd := gs[0], deltas[0]
		view, vd := full, fd
		if !sameView {
			view, vd = gs[1], deltas[1]
		}
		folder.Feed(fd, vd)
		days[day] = folder.Measure(day+1, full, view)
		if p := ds.Cfg.Progress; p != nil {
			p.AddDays(1)
			p.AddNodes(fd.NewSocial)
			p.AddLinks(len(fd.SocialEdges))
			p.AddDeltas(len(deltas))
		}

		// Capture the figure snapshots in passing.  The final-day
		// graphs are retained un-cloned: Close never mutates the graphs
		// it releases.
		if day == half {
			ds.halfView = view.Clone()
		}
		if day == last {
			ds.finalView, ds.finalFull = view, full
		}
	}
	ds.days = days
	return nil
}

// measureDaySampled computes the per-day metrics that do not come from
// the fold accumulators: O(1) counter reads plus the paper's sampled and
// edge-sweep estimators, which run against the day's graph with a
// per-day rng.  The rng consumption order (social clustering, then
// attribute clustering, then the attribute diameter) is part of the
// determinism contract with the test oracle.  neighbors is the social
// clustering estimator's neighbor source; the estimate is the same for
// every source that returns lists in SocialNeighbors order.
//
// Two concurrent lanes only read the graphs and write their own fields
// of m: the rng lane (the three rng consumers, in order, and the only
// caller of neighbors) and the rng-free lane (assortativities, stats,
// HyperANF).  Within the rng lane each clustering estimator draws its
// samples sequentially, keeping the rng order, and then probes them on
// every core.
func measureDaySampled(cfg Config, day int, full, view *san.SAN, neighbors func(*san.SAN, san.NodeID) []san.NodeID) DayMetrics {
	m := DayMetrics{
		Day:           day,
		Recip:         full.Reciprocity(),
		SocialDensity: full.SocialDensity(),
		AttrDensity:   view.AttrDensity(),
		DiamSocial:    math.NaN(),
		DiamAttr:      math.NaN(),
	}
	diam := cfg.DiamEvery > 0 && day%cfg.DiamEvery == 0 && day >= cfg.DiamEvery
	par.Do(func() {
		rng := rand.New(rand.NewPCG(cfg.Seed^uint64(day)*0x9b05688c2b3e6c1f, uint64(day)))
		ccSamples := metrics.SampleSize(0.01, 100) // ε=0.01, ν=100 per day
		m.CC = metrics.AverageSocialClustering(full, ccSamples, rng, neighbors)
		m.AttrCC = metrics.AverageAttrClustering(view, ccSamples, rng)
		if diam {
			m.DiamAttr = attrDiameter(view, rng)
		}
	}, func() {
		m.Assort = metrics.SocialAssortativity(full)
		m.AttrAssort = metrics.AttrAssortativity(view)
		m.Stats = view.Stats()
		if diam {
			nf := hll.HyperANF(full, hll.Options{Precision: cfg.HLLBits, Seed: cfg.Seed})
			m.DiamSocial = nf.EffectiveDiameter(0.9)
		}
	})
	return m
}

// attrDiameter estimates the effective attribute diameter by sampling
// source attributes with at least two members.
func attrDiameter(view *san.SAN, rng *rand.Rand) float64 {
	var candidates []san.AttrID
	for a := 0; a < view.NumAttrs(); a++ {
		if view.SocialDegreeOfAttr(san.AttrID(a)) >= 2 {
			candidates = append(candidates, san.AttrID(a))
		}
	}
	if len(candidates) == 0 {
		return math.NaN()
	}
	const sources = 8
	return hll.EffectiveAttrDiameter(view, sources, 0.9, func(int) san.AttrID {
		return candidates[rng.IntN(len(candidates))]
	})
}

// daySeries extracts one time series from the dataset.
func (d *Dataset) daySeries(name string, f func(DayMetrics) float64) Series {
	s := Series{Name: name}
	for _, m := range d.Days() {
		v := f(m)
		if math.IsNaN(v) {
			continue
		}
		s.X = append(s.X, float64(m.Day))
		s.Y = append(s.Y, v)
	}
	return s
}

// pmfSeries converts an integer sample into a log-binned empirical PMF
// curve suitable for the paper's log-log degree plots.
func pmfSeries(name string, data []int) Series {
	pmf := stats.PMF(data)
	xs := make([]float64, len(pmf))
	ys := make([]float64, len(pmf))
	for i, p := range pmf {
		xs[i] = float64(p.K)
		ys[i] = p.P
	}
	binned := stats.LogBinAverage(xs, ys, 1.5)
	s := Series{Name: name}
	for _, b := range binned {
		s.X = append(s.X, b.X)
		s.Y = append(s.Y, b.Y)
	}
	return s
}

// fitSeries evaluates a fitted log-PMF at the empirical bin centers.
func fitSeries(name string, ref Series, logPMF func(k int) float64) Series {
	s := Series{Name: name}
	for _, x := range ref.X {
		k := int(x + 0.5)
		if k < 1 {
			continue
		}
		s.X = append(s.X, x)
		s.Y = append(s.Y, math.Exp(logPMF(k)))
	}
	return s
}

// knnSeries converts a knn curve into a log-binned series.
func knnSeries(name string, pts []metrics.KnnPoint) Series {
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	for i, p := range pts {
		xs[i] = float64(p.Degree)
		ys[i] = p.Knn
	}
	s := Series{Name: name}
	for _, b := range stats.LogBinAverage(xs, ys, 1.5) {
		s.X = append(s.X, b.X)
		s.Y = append(s.Y, b.Y)
	}
	return s
}

// clusteringSeries converts a clustering-by-degree curve into a
// log-binned series.
func clusteringSeries(name string, pts []metrics.DegreeClusteringPoint) Series {
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	for i, p := range pts {
		xs[i] = float64(p.Degree)
		ys[i] = p.C
	}
	s := Series{Name: name}
	for _, b := range stats.LogBinAverage(xs, ys, 1.5) {
		s.X = append(s.X, b.X)
		s.Y = append(s.Y, b.Y)
	}
	return s
}

// Render formats a figure as an aligned text table: one row per X
// value, one column per series.
func Render(f Figure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", f.ID, f.Title)
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	// Collect the union of X values, and index each series by X value
	// up front — resolving every cell with a linear scan over the
	// series is quadratic for dense figures.  First occurrence wins,
	// matching the scan it replaces.
	xsSet := map[float64]bool{}
	cells := make([]map[float64]float64, len(f.Series))
	for i, s := range f.Series {
		cells[i] = make(map[float64]float64, len(s.X))
		for j, x := range s.X {
			xsSet[x] = true
			if _, ok := cells[i][x]; !ok {
				cells[i][x] = s.Y[j]
			}
		}
	}
	xs := make([]float64, 0, len(xsSet))
	for x := range xsSet {
		xs = append(xs, x)
	}
	sort.Float64s(xs)
	// Header.
	fmt.Fprintf(&b, "%12s", "x")
	for _, s := range f.Series {
		name := s.Name
		if len(name) > 20 {
			name = name[:20]
		}
		fmt.Fprintf(&b, " %20s", name)
	}
	b.WriteByte('\n')
	for _, x := range xs {
		fmt.Fprintf(&b, "%12.4g", x)
		for i := range f.Series {
			if v, ok := cells[i][x]; ok {
				fmt.Fprintf(&b, " %20.6g", v)
			} else {
				fmt.Fprintf(&b, " %20s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
