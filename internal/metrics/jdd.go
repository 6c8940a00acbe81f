package metrics

import (
	"math"
	"sort"

	"repro/internal/san"
)

// KnnPoint is one point of a degree-correlation (knn) curve.
type KnnPoint struct {
	Degree int     // x: degree class
	Knn    float64 // y: average neighbor degree for that class
	N      int     // number of (node, neighbor) samples aggregated
}

// SocialKnn computes the degree-correlation function of §3.6: for each
// outdegree k, the average indegree of all nodes that the outdegree-k
// nodes link to (Figure 7a).
func SocialKnn(g *san.SAN) []KnnPoint {
	sum := make(map[int]float64)
	cnt := make(map[int]int)
	for u := 0; u < g.NumSocial(); u++ {
		k := g.OutDegree(san.NodeID(u))
		if k == 0 {
			continue
		}
		for _, v := range g.Out(san.NodeID(u)) {
			sum[k] += float64(g.InDegree(v))
			cnt[k]++
		}
	}
	return knnPoints(sum, cnt)
}

// AttrKnn computes the attribute joint-degree curve of §4.1: for each
// social degree k of attribute nodes, the average attribute degree of
// the social neighbors of those attribute nodes (Figure 12a).
func AttrKnn(g *san.SAN) []KnnPoint {
	sum := make(map[int]float64)
	cnt := make(map[int]int)
	for a := 0; a < g.NumAttrs(); a++ {
		k := g.SocialDegreeOfAttr(san.AttrID(a))
		if k == 0 {
			continue
		}
		for _, u := range g.Members(san.AttrID(a)) {
			sum[k] += float64(g.AttrDegree(u))
			cnt[k]++
		}
	}
	return knnPoints(sum, cnt)
}

func knnPoints(sum map[int]float64, cnt map[int]int) []KnnPoint {
	keys := make([]int, 0, len(sum))
	for k := range sum {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]KnnPoint, len(keys))
	for i, k := range keys {
		out[i] = KnnPoint{Degree: k, Knn: sum[k] / float64(cnt[k]), N: cnt[k]}
	}
	return out
}

// SocialAssortativity returns the assortativity coefficient r of §3.6:
// the Pearson correlation, over directed social edges (u, v), between
// the outdegree of the source u and the indegree of the target v.
// It ranges over [-1, 1]; Google+ is near 0 (Figure 7b).
//
// The edge sample is never materialized: the per-day sweeps of the
// experiments layer call this on every snapshot.  The means come from
// O(|Vs|) degree sums — each u is the source of out(u) edges and each
// v the target of in(v), so Σx = Σu out(u)² and Σy = Σv in(v)² — and
// only the moments walk the edges.
func SocialAssortativity(g *san.SAN) float64 {
	var sx, sy int
	for u := 0; u < g.NumSocial(); u++ {
		out, in := g.OutDegree(san.NodeID(u)), g.InDegree(san.NodeID(u))
		sx += out * out
		sy += in * in
	}
	return pearsonOver(g.NumSocialEdges(), sx, sy, func(visit func(x, y float64)) {
		g.ForEachSocialEdge(func(u, v san.NodeID) {
			visit(float64(g.OutDegree(u)), float64(g.InDegree(v)))
		})
	})
}

// AttrAssortativity returns the attribute assortativity coefficient of
// §4.1: the Pearson correlation, over attribute links (u, a), between
// the social degree of the attribute node a and the attribute degree
// of the social node u (Figure 12b).  As in SocialAssortativity, the
// means come from degree sums: Σx = Σa |Γs(a)|² and Σy = Σu |Γa(u)|².
func AttrAssortativity(g *san.SAN) float64 {
	var sx, sy int
	for a := 0; a < g.NumAttrs(); a++ {
		k := g.SocialDegreeOfAttr(san.AttrID(a))
		sx += k * k
	}
	for u := 0; u < g.NumSocial(); u++ {
		k := g.AttrDegree(san.NodeID(u))
		sy += k * k
	}
	return pearsonOver(g.NumAttrEdges(), sx, sy, func(visit func(x, y float64)) {
		for a := 0; a < g.NumAttrs(); a++ {
			k := float64(g.SocialDegreeOfAttr(san.AttrID(a)))
			for _, u := range g.Members(san.AttrID(a)) {
				visit(k, float64(g.AttrDegree(u)))
			}
		}
	})
}

// pearsonOver computes the Pearson correlation of n pairs with integer
// sums sx = Σx and sy = Σy, delivered by an iterator for the moments,
// mirroring stats.Pearson's two-pass formula without materializing the
// sample.  The means are the sums over n: a float sum of the
// integer-valued pairs is exact while every partial sum stays below
// 2^53, which holds whenever n · max degree < 2^53, so taking them from
// integer sums gives the two-pass means bit for bit.  metrics stays
// free of the stats dependency (metrics is a measurement layer; stats
// is a modeling one).
func pearsonOver(n, sx, sy int, each func(visit func(x, y float64))) float64 {
	if n == 0 {
		return 0
	}
	mx := float64(sx) / float64(n)
	my := float64(sy) / float64(n)
	var cov, vx, vy float64
	each(func(x, y float64) {
		dx, dy := x-mx, y-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	})
	if vx < 1e-12 || vy < 1e-12 {
		return 0
	}
	return cov / (math.Sqrt(vx) * math.Sqrt(vy))
}
