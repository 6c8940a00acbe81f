package metrics

import (
	"math/rand/v2"
	"testing"

	"repro/internal/san"
)

// TestAccumulatorsMatchBatchExtraction evolves a small SAN while feeding
// every event to the accumulators, checking them against batch
// extraction after each round.
func TestAccumulatorsMatchBatchExtraction(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	g := san.New(0, 0, 0)
	soc := NewSocialDegreeAccum()
	att := NewAttrDegreeAccum()

	histOf := func(data []int) []int {
		max := 0
		for _, k := range data {
			if k > max {
				max = k
			}
		}
		hist := make([]int, max+1)
		for _, k := range data {
			hist[k]++
		}
		return hist
	}
	sameHist := func(name string, got, want []int) {
		t.Helper()
		for k := 0; k < len(got) || k < len(want); k++ {
			g, w := 0, 0
			if k < len(got) {
				g = got[k]
			}
			if k < len(want) {
				w = want[k]
			}
			if g != w {
				t.Fatalf("%s: hist[%d] = %d, want %d", name, k, g, w)
			}
		}
	}

	for round := 0; round < 20; round++ {
		// Grow: new nodes, attrs, social edges, attribute links.
		newNodes := 1 + rng.IntN(20)
		g.AddSocialNodes(newNodes)
		soc.AddNodes(newNodes)
		att.AddUsers(newNodes)
		newAttrs := rng.IntN(4)
		for i := 0; i < newAttrs; i++ {
			g.AddAttrNode(string(rune('a'+rng.IntN(26)))+string(rune('0'+round)), san.Generic)
		}
		// AddAttrNode dedups by name; sync the accumulator to the
		// actual count.
		for len(att.memberDeg) < g.NumAttrs() {
			att.AddAttrs(1)
		}
		n := g.NumSocial()
		for i := 0; i < 40; i++ {
			u, v := san.NodeID(rng.IntN(n)), san.NodeID(rng.IntN(n))
			if g.AddSocialEdge(u, v) {
				soc.AddEdge(u, v)
			}
		}
		if m := g.NumAttrs(); m > 0 {
			for i := 0; i < 10; i++ {
				u, a := san.NodeID(rng.IntN(n)), san.AttrID(rng.IntN(m))
				if g.AddAttrEdge(u, a) {
					att.AddLink(u, a)
				}
			}
		}

		sameHist("out", soc.Out.Counts(), histOf(OutDegrees(g)))
		sameHist("in", soc.In.Counts(), histOf(InDegrees(g)))
		sameHist("user attr", att.User.Counts(), histOf(AttrDegrees(g)))
		sameHist("attr social", att.Attr.Counts(), histOf(AttrSocialDegrees(g)))
	}
}

// TestNeighborCacheClusteringParity drives the clustering estimator
// through one long-lived san.NeighborCache and through the uncached
// SocialNeighbors source with identical rngs over a growing graph: the
// cache is never told about new edges, yet the estimates must agree
// bitwise on every day, which also pins the rng consumption pattern.
func TestNeighborCacheClusteringParity(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 42))
	g := san.New(0, 0, 0)
	var nc san.NeighborCache
	const k = 500
	for day := 0; day < 15; day++ {
		g.AddSocialNodes(5 + rng.IntN(30))
		n := g.NumSocial()
		for i := 0; i < 60; i++ {
			g.AddSocialEdge(san.NodeID(rng.IntN(n)), san.NodeID(rng.IntN(n)))
		}
		seed := uint64(day)*77 + 1
		a := AverageSocialClustering(g, k, rand.New(rand.NewPCG(seed, 9)), (*san.SAN).SocialNeighbors)
		b := AverageSocialClustering(g, k, rand.New(rand.NewPCG(seed, 9)), nc.Neighbors)
		if a != b {
			t.Fatalf("day %d: uncached clustering %v != cached %v", day, a, b)
		}
	}
}
