package likelihood

import (
	"math"

	"repro/internal/core"
	"repro/internal/san"
	"repro/internal/trace"
)

// ClosureStats is the §5.2 census of observed triangle-closing links.
// Categories overlap, as in the paper ("84% triadic, 18% focal, 15%
// both"): a link counts as triadic if its endpoints shared a social
// neighbor, focal if they shared an attribute.
type ClosureStats struct {
	Total   int
	Triadic int // endpoints had a common social neighbor
	Focal   int // endpoints had a common attribute
	Both    int
	Neither int
}

// TriadicPct returns the triadic share in percent.
func (c ClosureStats) TriadicPct() float64 { return pct(c.Triadic, c.Total) }

// FocalPct returns the focal share in percent.
func (c ClosureStats) FocalPct() float64 { return pct(c.Focal, c.Total) }

// BothPct returns the overlap share in percent.
func (c ClosureStats) BothPct() float64 { return pct(c.Both, c.Total) }

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// ClassifyClosures replays the trace and classifies every TriangleLink
// event (subsampled to every k-th) against the pre-link network state.
func ClassifyClosures(tr *trace.Trace, every int) ClosureStats {
	if every < 1 {
		every = 1
	}
	var cs ClosureStats
	seen := 0
	// One marker for the whole replay; each count resizes it to the
	// growing graph.
	var mark san.Marker
	tr.Replay(func(g *san.SAN, e trace.Event) {
		if e.Kind != trace.TriangleLink {
			return
		}
		seen++
		if seen%every != 0 {
			return
		}
		cs.Total++
		triadic := g.CommonSocialNeighbors(e.U, e.V, &mark) > 0
		focal := g.CommonAttrs(e.U, e.V) > 0
		if triadic {
			cs.Triadic++
		}
		if focal {
			cs.Focal++
		}
		switch {
		case triadic && focal:
			cs.Both++
		case !triadic && !focal:
			cs.Neither++
		}
	})
	return cs
}

// ClosingScore is the average log-likelihood of the observed closure
// targets under one closing model.
type ClosingScore struct {
	Kind   core.ClosingKind
	LogLik float64
	Events int
}

// ClosingComparison holds the three model scores plus the paper's
// relative-improvement metrics (§5.2: RR beats Baseline by ~14%,
// RR-SAN beats RR by a further ~36%).
type ClosingComparison struct {
	Baseline, RR, RRSAN ClosingScore
	RRImproveBaseline   float64 // percent
	RRSANImproveRR      float64 // percent
}

// EvaluateClosing replays the trace and scores every TriangleLink
// event under the three closing models with a small uniform smoothing
// mass (ε = 1%) so zero-probability events stay finite.  Events whose
// 2-hop neighborhood exceeds hoodLimit are skipped for all models.
func EvaluateClosing(tr *trace.Trace, every, hoodLimit int) ClosingComparison {
	if every < 1 {
		every = 1
	}
	if hoodLimit <= 0 {
		hoodLimit = 100000
	}
	const eps = 0.01
	var cmp ClosingComparison
	cmp.Baseline.Kind = core.CloseBaseline
	cmp.RR.Kind = core.CloseRR
	cmp.RRSAN.Kind = core.CloseRRSAN
	seen := 0
	// One 2-hop scratch for the whole replay: the evolving graph
	// invalidates its memoized neighborhoods through degree stamps.
	var hop core.TwoHopScratch

	tr.Replay(func(g *san.SAN, e trace.Event) {
		if e.Kind != trace.TriangleLink {
			return
		}
		seen++
		if seen%every != 0 {
			return
		}
		n := g.NumSocial()
		if n < 3 {
			return
		}
		nbrs := g.SocialNeighbors(e.U)
		attrs := g.Attrs(e.U)
		// Cost guard: scoring iterates neighbor lists of first hops.
		cost := 0
		for _, w := range nbrs {
			cost += g.OutDegree(w) + g.InDegree(w)
		}
		if cost > hoodLimit {
			return
		}

		smooth := func(p float64) float64 { return math.Log((1-eps)*p + eps/float64(n)) }

		// Baseline: uniform over the 2-hop radius.
		hood := hop.TwoHop(g, e.U)
		pb := 0.0
		for _, w := range hood {
			if w == e.V {
				pb = 1 / float64(len(hood))
				break
			}
		}
		cmp.Baseline.LogLik += smooth(pb)
		cmp.Baseline.Events++

		// RR: uniform social neighbor w, uniform neighbor of w.
		pr := 0.0
		if len(nbrs) > 0 {
			for _, w := range nbrs {
				if connected(g, w, e.V) {
					pr += 1 / float64(g.SocialNeighborCount(w))
				}
			}
			pr /= float64(len(nbrs))
		}
		cmp.RR.LogLik += smooth(pr)
		cmp.RR.Events++

		// RR-SAN: first hop uniform over Γs(u) ∪ Γa(u).
		tot := len(nbrs) + len(attrs)
		ps := 0.0
		if tot > 0 {
			for _, w := range nbrs {
				if connected(g, w, e.V) {
					ps += 1 / float64(g.SocialNeighborCount(w))
				}
			}
			for _, a := range attrs {
				if g.HasAttrEdge(e.V, a) {
					ps += 1 / float64(g.SocialDegreeOfAttr(a))
				}
			}
			ps /= float64(tot)
		}
		cmp.RRSAN.LogLik += smooth(ps)
		cmp.RRSAN.Events++
	})

	if cmp.Baseline.LogLik != 0 {
		cmp.RRImproveBaseline = 100 * (cmp.Baseline.LogLik - cmp.RR.LogLik) / cmp.Baseline.LogLik
	}
	if cmp.RR.LogLik != 0 {
		cmp.RRSANImproveRR = 100 * (cmp.RR.LogLik - cmp.RRSAN.LogLik) / cmp.RR.LogLik
	}
	return cmp
}

func connected(g *san.SAN, w, v san.NodeID) bool {
	return w != v && (g.HasSocialEdge(w, v) || g.HasSocialEdge(v, w))
}
