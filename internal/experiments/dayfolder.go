package experiments

import (
	"repro/internal/metrics"
	"repro/internal/san"
	"repro/internal/snapstore"
	"repro/internal/stats"
)

// DayFolder packages the per-day step of the incremental measurement
// walk: exact accumulators advanced from each day's Delta plus the
// sampled estimators run against the day's graph.  The batch fold
// (measureTimelines) and sanserve's live /v1/stream walk share it,
// which is what makes live-streamed per-day metrics bitwise-identical
// to the batch figure values for the same day.
//
// Feed and Measure are split so a consumer interested in a day range
// can advance cheaply through the prefix: Feed costs O(new structure)
// per day, Measure pays for the sampled estimators.  Skipping Measure
// for a day changes nothing downstream — each day gets its own rng,
// and the only Measure-side mutation is neighbor-cache memoization,
// which never changes a served list: san.NeighborCache stamps each
// list with its node's degrees, so it follows the append-only graph
// without any bookkeeping in Feed.  Measure runs its estimators in two
// concurrent lanes; the cache belongs to the rng lane (the clustering
// and attribute-diameter estimators), whose sequential draws are its
// only callers — the clustering probes that fan out after each draw
// and the other lane never touch it.
type DayFolder struct {
	cfg Config
	soc *metrics.SocialDegreeAccum
	att *metrics.AttrDegreeAccum
	nc  san.NeighborCache
}

// NewDayFolder returns a folder positioned before day 0.
func NewDayFolder(cfg Config) *DayFolder {
	return &DayFolder{
		cfg: cfg,
		soc: metrics.NewSocialDegreeAccum(),
		att: metrics.NewAttrDegreeAccum(),
	}
}

// Feed folds one day's deltas into the accumulators: fd is the full
// timeline's delta (social structure), vd the crawl view's (declared
// attribute links).  For single-timeline walks pass the same delta for
// both roles.
func (f *DayFolder) Feed(fd, vd *snapstore.Delta) {
	f.soc.AddNodes(fd.NewSocial)
	for _, e := range fd.SocialEdges {
		f.soc.AddEdge(e.U, e.V)
	}
	f.att.AddUsers(vd.NewSocial)
	f.att.AddAttrs(vd.NewAttrs)
	for _, l := range vd.AttrLinks {
		f.att.AddLink(l.U, l.A)
	}
}

// Measure computes the 1-based day's full metric record from the fed
// accumulators and the day's evolving graphs.  Call it after Feed for
// the same day.
func (f *DayFolder) Measure(day int, full, view *san.SAN) DayMetrics {
	m := measureDaySampled(f.cfg, day, full, view, f.nc.Neighbors)
	m.MuOut, m.SigmaOut = stats.LogMomentsHist(f.soc.Out.Counts())
	m.MuIn, m.SigmaIn = stats.LogMomentsHist(f.soc.In.Counts())
	m.MuAttrDeg, m.SigmaAttrDeg = stats.LogMomentsHist(f.att.User.Counts())
	m.AlphaAttrSocial = stats.FitPowerLawHist(f.att.Attr.Counts(), 1).Alpha
	return m
}
