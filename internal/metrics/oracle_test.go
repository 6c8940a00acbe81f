package metrics

import (
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/san"
)

// linksAmongPairProbe is the reference L(u) census: probe every
// ordered pair of distinct set members.  O(k²) membership probes.
func linksAmongPairProbe(g *san.SAN, nodes []san.NodeID) int {
	l := 0
	for i, v := range nodes {
		for j, w := range nodes {
			if i != j && g.HasSocialEdge(v, w) {
				l++
			}
		}
	}
	return l
}

// commonNeighborsMap is the reference common-neighbor count: a map
// over Γs(u), probed with Γs(v).
func commonNeighborsMap(g *san.SAN, u, v san.NodeID) int {
	seen := make(map[san.NodeID]bool)
	for _, w := range g.SocialNeighbors(u) {
		seen[w] = true
	}
	n := 0
	for _, w := range g.SocialNeighbors(v) {
		if seen[w] {
			n++
		}
	}
	return n
}

// fineGrainedReciprocityOracle is FineGrainedReciprocity over the map
// count: the bucket layout and classification of Figure 13a, spelled
// out edge by edge.
func fineGrainedReciprocityOracle(half, final *san.SAN, maxCommon int) []ReciprocityBucket {
	buckets := make([]ReciprocityBucket, 3*(maxCommon+1))
	for i := range buckets {
		buckets[i].CommonSocial = i % (maxCommon + 1)
		buckets[i].CommonAttrs = i / (maxCommon + 1)
	}
	half.ForEachSocialEdge(func(u, v san.NodeID) {
		if half.HasSocialEdge(v, u) {
			return
		}
		idx := min(half.CommonAttrs(u, v), 2)*(maxCommon+1) + min(commonNeighborsMap(half, u, v), maxCommon)
		buckets[idx].Links++
		if final.HasSocialEdge(v, u) {
			buckets[idx].Reciprocated++
		}
	})
	return buckets
}

// randomSAN builds an n-node SAN with about deg out-links per node, a
// few hubs linked to most of the graph in both directions, and m
// attributes whose member lists include the hubs.
func randomSAN(rng *rand.Rand, n, deg, m int) *san.SAN {
	g := san.New(n, m, n*deg)
	g.AddSocialNodes(n)
	for i := 0; i < n*deg; i++ {
		g.AddSocialEdge(san.NodeID(rng.IntN(n)), san.NodeID(rng.IntN(n)))
	}
	for h := 0; h < 3; h++ {
		for v := 0; v < n; v++ {
			if rng.IntN(4) != 0 {
				g.AddSocialEdge(san.NodeID(h), san.NodeID(v))
				g.AddSocialEdge(san.NodeID(v), san.NodeID(h))
			}
		}
	}
	for a := 0; a < m; a++ {
		id := g.AddAttrNode(string(rune('A'+a)), san.Generic)
		g.AddAttrEdge(san.NodeID(a%3), id)
		for k := rng.IntN(12); k > 0; k-- {
			g.AddAttrEdge(san.NodeID(rng.IntN(n)), id)
		}
	}
	return g
}

// TestLinksAmongMatchesPairProbe pins the mark-and-count census to the
// pair probe on every social neighborhood and every attribute member
// set of random SANs, one reused clusterer throughout.  The hubs'
// out-lists are longer than most sets, so both branches run.
func TestLinksAmongMatchesPairProbe(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewPCG(seed, 17))
		g := randomSAN(rng, 20+rng.IntN(60), 1+rng.IntN(6), 8)
		var c clusterer
		probed := 0
		check := func(what string, id int, nodes []san.NodeID) {
			for _, v := range nodes {
				if g.OutDegree(v) > len(nodes) {
					probed++
				}
			}
			if got, want := c.linksAmong(g, nodes), linksAmongPairProbe(g, nodes); got != want {
				t.Errorf("seed %d: %s %d: linksAmong = %d, pair probe %d", seed, what, id, got, want)
			}
		}
		for u := 0; u < g.NumSocial(); u++ {
			check("neighborhood of", u, g.SocialNeighbors(san.NodeID(u)))
		}
		for a := 0; a < g.NumAttrs(); a++ {
			check("members of", a, g.Members(san.AttrID(a)))
		}
		if probed == 0 {
			t.Errorf("seed %d: no member out-list exceeded its set; the probe branch went untested", seed)
		}
	}
}

// TestFineGrainedReciprocityMatchesOracle requires every Figure 13a
// bucket to match the map-count oracle exactly, with a small cap so
// the capped class fills too.
func TestFineGrainedReciprocityMatchesOracle(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewPCG(seed, 29))
		half := randomSAN(rng, 30+rng.IntN(50), 2+rng.IntN(4), 10)
		final := half.Clone()
		n := final.NumSocial()
		final.AddSocialNodes(5)
		for i := 0; i < 3*n; i++ {
			final.AddSocialEdge(san.NodeID(rng.IntN(n+5)), san.NodeID(rng.IntN(n+5)))
		}
		for _, maxCommon := range []int{4, 60} {
			got := FineGrainedReciprocity(half, final, maxCommon)
			want := fineGrainedReciprocityOracle(half, final, maxCommon)
			if !slices.Equal(got, want) {
				t.Errorf("seed %d maxCommon %d: buckets differ from the oracle\n got %v\nwant %v", seed, maxCommon, got, want)
			}
		}
	}
}
