// Package metrics implements the measurement suite of the paper:
// reciprocity (global and fine-grained), social and attribute density,
// directed clustering coefficients (exact and the constant-time
// sampling estimator of Appendix A), degree extraction, joint-degree
// (knn) curves, assortativity coefficients, and attribute distance.
package metrics

import (
	"math"
	"math/rand/v2"
	"sort"
	"sync"

	"repro/internal/par"
	"repro/internal/san"
)

// SampleSize returns K = ⌈ln(2ν) / (2ε²)⌉, the number of samples
// needed by Algorithm 2 so that the estimated average clustering
// coefficient is within ε of the truth with probability at least 1-1/ν
// (Theorem 3).  The paper uses ε = 0.002, ν = 100.
func SampleSize(eps float64, nu float64) int {
	return int(math.Ceil(math.Log(2*nu) / (2 * eps * eps)))
}

// clusterer is the reusable state of exact clustering: one stamp
// marker and one neighbor buffer, shared across a whole curve.
type clusterer struct {
	mark san.Marker
	nbrs []san.NodeID
}

// linksAmong counts L(u): the number of directed social links among
// the given distinct social nodes (each direction counted separately).
// It marks the set once, then counts each member's marked
// out-neighbors, or probes the set when the member's out-list is the
// longer of the two.  Social links have no self-loops, so this is the
// ordered-pair census of every v ≠ w in the set.
func (c *clusterer) linksAmong(g *san.SAN, nodes []san.NodeID) int {
	c.mark.Reset(g.NumSocial())
	for _, v := range nodes {
		c.mark.Mark(v)
	}
	l := 0
	for _, v := range nodes {
		out := g.Out(v)
		if len(out) > len(nodes) {
			for _, w := range nodes {
				if g.HasSocialEdge(v, w) {
					l++
				}
			}
			continue
		}
		for _, w := range out {
			if c.mark.Marked(w) {
				l++
			}
		}
	}
	return l
}

// social returns c(u); see SocialClustering.
func (c *clusterer) social(g *san.SAN, u san.NodeID) float64 {
	c.nbrs = g.AppendSocialNeighbors(c.nbrs[:0], u)
	d := len(c.nbrs)
	if d < 2 {
		return 0
	}
	return float64(c.linksAmong(g, c.nbrs)) / float64(d*(d-1))
}

// SocialClustering returns the directed clustering coefficient
// c(u) = L(u) / (|Γs(u)|(|Γs(u)|-1)) of social node u (§3.4); 0 when u
// has fewer than two social neighbors.  Cost is O(Σ min(|Γs,out(v)|,
// |Γs(u)|)) over the neighbors v of u, plus an |Vs| marker per call.
func SocialClustering(g *san.SAN, u san.NodeID) float64 {
	return new(clusterer).social(g, u)
}

// AttrClustering returns the attribute clustering coefficient c(a) of
// attribute node a (§4.1): the directed link density among the users
// declaring a.  For attributes with more than maxExact members the
// pair census is estimated from maxExact² sampled ordered pairs
// (deterministically seeded), keeping the cost bounded for celebrity
// attributes.  Pass maxExact <= 0 for a default of 64.
func AttrClustering(g *san.SAN, a san.AttrID, maxExact int, rng *rand.Rand) float64 {
	return new(clusterer).attr(g, a, maxExact, rng)
}

// attr returns c(a); see AttrClustering.
func (c *clusterer) attr(g *san.SAN, a san.AttrID, maxExact int, rng *rand.Rand) float64 {
	if maxExact <= 0 {
		maxExact = 64
	}
	members := g.Members(a)
	d := len(members)
	if d < 2 {
		return 0
	}
	if d <= maxExact {
		return float64(c.linksAmong(g, members)) / float64(d*(d-1))
	}
	// Sample ordered pairs uniformly.
	k := maxExact * maxExact
	hits := 0
	for i := 0; i < k; i++ {
		v := members[rng.IntN(d)]
		w := members[rng.IntN(d)]
		if v == w {
			i-- // resample: ordered pairs are over distinct nodes
			continue
		}
		if g.HasSocialEdge(v, w) {
			hits++
		}
	}
	return float64(hits) / float64(k)
}

// AverageSocialClusteringExact computes Cs = (1/|Vs|) Σ c(u) exactly.
// It visits every neighborhood; use on small graphs and in tests.
func AverageSocialClusteringExact(g *san.SAN) float64 {
	n := g.NumSocial()
	if n == 0 {
		return 0
	}
	var c clusterer
	var sum float64
	for u := 0; u < n; u++ {
		sum += c.social(g, san.NodeID(u))
	}
	return sum / float64(n)
}

// AverageSocialClustering estimates Cs with Algorithm 2: K uniform
// triple samples, each scoring F ∈ {0,1,2} for the connectivity of a
// random neighbor pair of a random node, and C̃ = ΣF / (2K).
//
// neighbors supplies Γs(u) in SocialNeighbors order: one-shot callers
// pass (*san.SAN).SocialNeighbors, and a fold over a growing graph
// passes a long-lived san.NeighborCache's Neighbors.  Any source with
// that order consumes rng identically and gives the same estimate.
// neighbors is only called from the caller's goroutine.
func AverageSocialClustering(g *san.SAN, k int, rng *rand.Rand, neighbors func(*san.SAN, san.NodeID) []san.NodeID) float64 {
	return estimateClustering(g, k, g.NumSocial(), rng, func(c int) []san.NodeID {
		return neighbors(g, san.NodeID(c))
	})
}

// AverageAttrClustering estimates Ca = (1/|Va|) Σ c(a) with
// Algorithm 2 over Ω = Va.
func AverageAttrClustering(g *san.SAN, k int, rng *rand.Rand) float64 {
	return estimateClustering(g, k, g.NumAttrs(), rng, func(c int) []san.NodeID {
		return g.Members(san.AttrID(c))
	})
}

// probeChunk is the number of drawn pairs one par.For item probes.
const probeChunk = 1024

// pairBufs recycles the draw buffers: a fold day runs two estimates of
// K = 26,492 pairs (212 KB each), which would otherwise add 41 MB of
// garbage to every 98-day dataset build.
var pairBufs = sync.Pool{New: func() any { return new([][2]san.NodeID) }}

// estimateClustering runs Algorithm 2 over the n centers whose
// neighbor lists nbrs returns, in two phases.  The draw is sequential
// and consumes rng exactly as one sample at a time would: a center,
// then a uniform pair of its distinct neighbors (no draw for a center
// with fewer than two: it has no triples and scores F = 0).  The
// probes then count F over fixed chunks of the drawn pairs in
// parallel, each chunk into its own integer slot, summed after the
// join, so the estimate and the rng's final state do not depend on the
// schedule.
func estimateClustering(g *san.SAN, k, n int, rng *rand.Rand, nbrs func(c int) []san.NodeID) float64 {
	if n == 0 || k <= 0 {
		return 0
	}
	buf := pairBufs.Get().(*[][2]san.NodeID)
	defer pairBufs.Put(buf)
	pairs := (*buf)[:0]
	for range k {
		nb := nbrs(rng.IntN(n))
		d := len(nb)
		if d < 2 {
			continue
		}
		i := rng.IntN(d)
		j := rng.IntN(d - 1)
		if j >= i {
			j++
		}
		pairs = append(pairs, [2]san.NodeID{nb[i], nb[j]})
	}
	*buf = pairs
	counts := make([]int, (len(pairs)+probeChunk-1)/probeChunk)
	par.For(len(counts), func(c int) {
		f := 0
		for _, p := range pairs[c*probeChunk : min((c+1)*probeChunk, len(pairs))] {
			if g.HasSocialEdge(p[0], p[1]) {
				f++
			}
			if g.HasSocialEdge(p[1], p[0]) {
				f++
			}
		}
		counts[c] = f
	})
	total := 0
	for _, f := range counts {
		total += f
	}
	return float64(total) / float64(2*k)
}

// DegreeClusteringPoint pairs a degree with the average clustering
// coefficient of nodes having that degree (Figures 9 and 17).
type DegreeClusteringPoint struct {
	Degree int
	C      float64
	N      int
}

// SocialClusteringByDegree returns, for every social-neighbor count d
// present in the graph, the average social clustering coefficient of
// nodes with that degree.  Nodes are subsampled to at most perNode
// clustering evaluations per degree class when perNode > 0.
func SocialClusteringByDegree(g *san.SAN, perNode int, rng *rand.Rand) []DegreeClusteringPoint {
	byDeg := make(map[int][]san.NodeID)
	for u := 0; u < g.NumSocial(); u++ {
		d := g.SocialNeighborCount(san.NodeID(u))
		if d >= 2 {
			byDeg[d] = append(byDeg[d], san.NodeID(u))
		}
	}
	var c clusterer
	return clusteringByDegree(byDeg, perNode, rng, func(u san.NodeID) float64 {
		return c.social(g, u)
	})
}

// AttrClusteringByDegree returns, for every member count d present,
// the average attribute clustering coefficient of attribute nodes with
// that social degree.
func AttrClusteringByDegree(g *san.SAN, perNode int, rng *rand.Rand) []DegreeClusteringPoint {
	byDeg := make(map[int][]san.NodeID)
	for a := 0; a < g.NumAttrs(); a++ {
		d := g.SocialDegreeOfAttr(san.AttrID(a))
		if d >= 2 {
			byDeg[d] = append(byDeg[d], san.NodeID(a))
		}
	}
	var c clusterer
	return clusteringByDegree(byDeg, perNode, rng, func(id san.NodeID) float64 {
		return c.attr(g, san.AttrID(id), 0, rng)
	})
}

func clusteringByDegree(byDeg map[int][]san.NodeID, perNode int, rng *rand.Rand, c func(san.NodeID) float64) []DegreeClusteringPoint {
	degs := make([]int, 0, len(byDeg))
	for d := range byDeg {
		degs = append(degs, d)
	}
	sort.Ints(degs)
	out := make([]DegreeClusteringPoint, 0, len(degs))
	for _, d := range degs {
		nodes := byDeg[d]
		n := len(nodes)
		if perNode > 0 && n > perNode {
			// Uniform subsample without replacement (partial shuffle).
			for i := 0; i < perNode; i++ {
				j := i + rng.IntN(n-i)
				nodes[i], nodes[j] = nodes[j], nodes[i]
			}
			nodes = nodes[:perNode]
		}
		var sum float64
		for _, u := range nodes {
			sum += c(u)
		}
		out = append(out, DegreeClusteringPoint{Degree: d, C: sum / float64(len(nodes)), N: n})
	}
	return out
}

// AverageAttrClusteringByType computes the average attribute
// clustering coefficient per attribute type (Figure 13b).  Attribute
// nodes with fewer than two members count as zero, as in the averages.
func AverageAttrClusteringByType(g *san.SAN, rng *rand.Rand) map[san.AttrType]float64 {
	sums := make(map[san.AttrType]float64)
	counts := make(map[san.AttrType]int)
	var c clusterer
	for a := 0; a < g.NumAttrs(); a++ {
		t := g.AttrTypeOf(san.AttrID(a))
		sums[t] += c.attr(g, san.AttrID(a), 0, rng)
		counts[t]++
	}
	out := make(map[san.AttrType]float64, len(sums))
	for t, s := range sums {
		out[t] = s / float64(counts[t])
	}
	return out
}
