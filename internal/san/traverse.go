package san

import "math/rand/v2"

// BFSDirected computes directed shortest-path distances (following
// social out-links only, as in §3.3) from src to every reachable node.
// Unreachable nodes have distance -1.
func (g *SAN) BFSDirected(src NodeID) []int32 {
	dist := make([]int32, g.NumSocial())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		du := dist[u]
		for _, v := range g.out[u] {
			if dist[v] < 0 {
				dist[v] = du + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// MultiSourceBFSDirected computes, for every node, the directed
// distance from the nearest of the given sources.  Unreachable nodes
// have distance -1.  It is the primitive behind the attribute distance
// of §4.1: dist(a, b) = min over members of a of the social distance to
// any member of b, plus one.
func (g *SAN) MultiSourceBFSDirected(srcs []NodeID) []int32 {
	dist := make([]int32, g.NumSocial())
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]NodeID, 0, len(srcs))
	for _, s := range srcs {
		if dist[s] < 0 {
			dist[s] = 0
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		du := dist[u]
		for _, v := range g.out[u] {
			if dist[v] < 0 {
				dist[v] = du + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// WeaklyConnectedComponents labels each social node with a component
// ID (0-based, ordered by discovery) over the undirected view of the
// social graph and returns the labels together with component sizes.
func (g *SAN) WeaklyConnectedComponents() (labels []int32, sizes []int) {
	n := g.NumSocial()
	labels = make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	var queue []NodeID
	for s := 0; s < n; s++ {
		if labels[s] >= 0 {
			continue
		}
		id := int32(len(sizes))
		labels[s] = id
		size := 1
		queue = append(queue[:0], NodeID(s))
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range g.out[u] {
				if labels[v] < 0 {
					labels[v] = id
					size++
					queue = append(queue, v)
				}
			}
			for _, v := range g.in[u] {
				if labels[v] < 0 {
					labels[v] = id
					size++
					queue = append(queue, v)
				}
			}
		}
		sizes = append(sizes, size)
	}
	return labels, sizes
}

// LargestWCCSize returns the size of the largest weakly connected
// component.  The paper's crawl collected one large WCC; our pipelines
// use this to report coverage.
func (g *SAN) LargestWCCSize() int {
	_, sizes := g.WeaklyConnectedComponents()
	max := 0
	for _, s := range sizes {
		if s > max {
			max = s
		}
	}
	return max
}

// SampleDistances runs directed BFS from k uniformly random source
// nodes and returns all finite pairwise distances observed (excluding
// the zero self-distances).  This is the sampling estimator behind the
// distance-distribution observation of §3.3 ("dominant mode at six").
func (g *SAN) SampleDistances(k int, rng *rand.Rand) []int {
	n := g.NumSocial()
	if n == 0 || k <= 0 {
		return nil
	}
	var all []int
	for i := 0; i < k; i++ {
		src := NodeID(rng.IntN(n))
		dist := g.BFSDirected(src)
		for v, d := range dist {
			if d > 0 && NodeID(v) != src {
				all = append(all, int(d))
			}
		}
	}
	return all
}

// Subsample returns a copy of the SAN in which each attribute link is
// independently kept with probability keep.  Attribute nodes left with
// no members are retained (with zero degree) so attribute IDs remain
// stable.  This implements the §4.3 validation methodology.
func (g *SAN) Subsample(keep float64, rng *rand.Rand) *SAN {
	c := New(g.NumSocial(), g.NumAttrs(), g.NumSocialEdges())
	c.AddSocialNodes(g.NumSocial())
	for a := 0; a < g.NumAttrs(); a++ {
		c.AddAttrNode(g.attrName[a], g.attrType[a])
	}
	g.ForEachSocialEdge(func(u, v NodeID) { c.AddSocialEdge(u, v) })
	for u := 0; u < g.NumSocial(); u++ {
		for _, a := range g.attr[u] {
			if rng.Float64() < keep {
				c.AddAttrEdge(NodeID(u), a)
			}
		}
	}
	return c
}
