package metrics

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/san"
)

// triangle builds a fully reciprocal triangle 0<->1<->2<->0.
func triangle() *san.SAN {
	g := san.New(3, 0, 6)
	g.AddSocialNodes(3)
	for _, e := range [][2]san.NodeID{{0, 1}, {1, 0}, {1, 2}, {2, 1}, {0, 2}, {2, 0}} {
		g.AddSocialEdge(e[0], e[1])
	}
	return g
}

func TestSampleSize(t *testing.T) {
	// Paper's defaults: ε = 0.002, ν = 100 → K = ⌈ln 200 / (2·4e-6)⌉.
	got := SampleSize(0.002, 100)
	want := int(math.Ceil(math.Log(200) / (2 * 0.002 * 0.002)))
	if got != want {
		t.Errorf("SampleSize = %d, want %d", got, want)
	}
	if got < 600000 || got > 700000 {
		t.Errorf("SampleSize = %d, expected ~662000", got)
	}
}

func TestSocialClusteringTriangle(t *testing.T) {
	g := triangle()
	for u := san.NodeID(0); u < 3; u++ {
		if c := SocialClustering(g, u); c != 1 {
			t.Errorf("clustering(%d) = %v, want 1 (reciprocal triangle)", u, c)
		}
	}
	if c := AverageSocialClusteringExact(g); c != 1 {
		t.Errorf("average clustering = %v, want 1", c)
	}
}

func TestSocialClusteringOneWayTriangle(t *testing.T) {
	// Cycle 0->1->2->0: each node has 2 neighbors with exactly one
	// directed link between them: c = 1/(2·1) = 0.5.
	g := san.New(3, 0, 3)
	g.AddSocialNodes(3)
	g.AddSocialEdge(0, 1)
	g.AddSocialEdge(1, 2)
	g.AddSocialEdge(2, 0)
	for u := san.NodeID(0); u < 3; u++ {
		if c := SocialClustering(g, u); c != 0.5 {
			t.Errorf("clustering(%d) = %v, want 0.5", u, c)
		}
	}
}

func TestSocialClusteringStarIsZero(t *testing.T) {
	g := san.New(5, 0, 4)
	g.AddSocialNodes(5)
	for i := san.NodeID(1); i < 5; i++ {
		g.AddSocialEdge(0, i)
	}
	if c := SocialClustering(g, 0); c != 0 {
		t.Errorf("star center clustering = %v, want 0", c)
	}
	if c := SocialClustering(g, 1); c != 0 {
		t.Errorf("leaf clustering = %v, want 0 (degree < 2)", c)
	}
}

func TestSampledClusteringMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 43))
	g := san.New(300, 0, 0)
	g.AddSocialNodes(300)
	for i := 0; i < 3000; i++ {
		g.AddSocialEdge(san.NodeID(rng.IntN(300)), san.NodeID(rng.IntN(300)))
	}
	exact := AverageSocialClusteringExact(g)
	approx := AverageSocialClustering(g, 200000, rng, (*san.SAN).SocialNeighbors)
	if math.Abs(exact-approx) > 0.01 {
		t.Errorf("sampled clustering %v vs exact %v", approx, exact)
	}
}

func TestAttrClustering(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	g := triangle()
	a := g.AddAttrNode("all", san.Generic)
	for u := san.NodeID(0); u < 3; u++ {
		g.AddAttrEdge(u, a)
	}
	if c := AttrClustering(g, a, 0, rng); c != 1 {
		t.Errorf("attribute clustering over a reciprocal triangle = %v, want 1", c)
	}
	b := g.AddAttrNode("single", san.Generic)
	g.AddAttrEdge(0, b)
	if c := AttrClustering(g, b, 0, rng); c != 0 {
		t.Errorf("singleton attribute clustering = %v, want 0", c)
	}
}

func TestAttrClusteringSampledPath(t *testing.T) {
	// A large attribute (above maxExact) with a known link density.
	rng := rand.New(rand.NewPCG(2, 2))
	n := 200
	g := san.New(n, 1, 0)
	g.AddSocialNodes(n)
	a := g.AddAttrNode("big", san.Generic)
	for u := 0; u < n; u++ {
		g.AddAttrEdge(san.NodeID(u), a)
	}
	// Full reciprocal clique on the first 40 members, nothing else.
	for i := 0; i < 40; i++ {
		for j := 0; j < 40; j++ {
			if i != j {
				g.AddSocialEdge(san.NodeID(i), san.NodeID(j))
			}
		}
	}
	exact := float64(40*39) / float64(n*(n-1))
	got := AttrClustering(g, a, 32, rng) // forces the sampling path
	if math.Abs(got-exact) > 0.02 {
		t.Errorf("sampled attribute clustering = %v, want ~%v", got, exact)
	}
}

func TestClusteringByDegreeCurves(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	g := triangle()
	extra := g.AddSocialNodes(2)
	g.AddSocialEdge(extra, extra+1)
	pts := SocialClusteringByDegree(g, 0, rng)
	// Triangle nodes have 2 neighbors and clustering 1.
	found := false
	for _, p := range pts {
		if p.Degree == 2 {
			found = true
			if p.C != 1 || p.N != 3 {
				t.Errorf("degree-2 class = %+v, want C=1 N=3", p)
			}
		}
	}
	if !found {
		t.Error("no degree-2 class found")
	}
}

func TestDegreeExtraction(t *testing.T) {
	g := triangle()
	a := g.AddAttrNode("x", san.Employer)
	g.AddAttrEdge(0, a)
	g.AddAttrEdge(1, a)
	if got := OutDegrees(g); got[0] != 2 || got[1] != 2 || got[2] != 2 {
		t.Errorf("OutDegrees = %v", got)
	}
	if got := InDegrees(g); got[0] != 2 {
		t.Errorf("InDegrees = %v", got)
	}
	if got := AttrDegrees(g); got[0] != 1 || got[2] != 0 {
		t.Errorf("AttrDegrees = %v", got)
	}
	if got := AttrSocialDegrees(g); got[0] != 2 {
		t.Errorf("AttrSocialDegrees = %v", got)
	}
	if got := OutDegreesWithAttr(g, a); len(got) != 2 || got[0] != 2 {
		t.Errorf("OutDegreesWithAttr = %v", got)
	}
}

func TestSocialKnn(t *testing.T) {
	// Star out of 0: 0 -> 1..4, and 1 -> 0. outdeg(0)=4, its targets
	// have indegree 1 each -> knn[4] = 1. outdeg(1)=1, target 0 has
	// indegree 1 -> knn[1] = 1.
	g := san.New(5, 0, 5)
	g.AddSocialNodes(5)
	for i := san.NodeID(1); i < 5; i++ {
		g.AddSocialEdge(0, i)
	}
	g.AddSocialEdge(1, 0)
	pts := SocialKnn(g)
	if len(pts) != 2 {
		t.Fatalf("knn points = %+v, want 2 classes", pts)
	}
	for _, p := range pts {
		if p.Knn != 1 {
			t.Errorf("knn[%d] = %v, want 1", p.Degree, p.Knn)
		}
	}
}

func TestAssortativitySigns(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	// Disassortative: one hub followed by many leaves, leaves also
	// follow each other's hub only.
	g := san.New(0, 0, 0)
	g.AddSocialNodes(101)
	for i := san.NodeID(1); i <= 100; i++ {
		g.AddSocialEdge(i, 0) // low-outdegree sources -> high-indegree target
	}
	// A few hub-out edges to low-indegree targets.
	for i := san.NodeID(1); i <= 30; i++ {
		g.AddSocialEdge(0, i)
	}
	r := SocialAssortativity(g)
	if r >= 0 {
		t.Errorf("hub-leaf graph assortativity = %v, want negative", r)
	}
	// Assortative: two reciprocal cliques of different sizes.
	g2 := san.New(0, 0, 0)
	g2.AddSocialNodes(16)
	for i := san.NodeID(0); i < 8; i++ {
		for j := san.NodeID(0); j < 8; j++ {
			if i != j {
				g2.AddSocialEdge(i, j)
			}
		}
	}
	for i := san.NodeID(8); i < 12; i++ {
		for j := san.NodeID(8); j < 12; j++ {
			if i != j {
				g2.AddSocialEdge(i, j)
			}
		}
	}
	if r2 := SocialAssortativity(g2); r2 <= 0.5 {
		t.Errorf("two-clique assortativity = %v, want strongly positive", r2)
	}
	_ = rng
}

func TestAttrKnnAndAssortativity(t *testing.T) {
	g := san.New(4, 2, 0)
	g.AddSocialNodes(4)
	big := g.AddAttrNode("big", san.Generic)
	small := g.AddAttrNode("small", san.Generic)
	// Users 0,1,2 have "big"; user 0 also has "small".
	g.AddAttrEdge(0, big)
	g.AddAttrEdge(1, big)
	g.AddAttrEdge(2, big)
	g.AddAttrEdge(0, small)
	pts := AttrKnn(g)
	// big has social degree 3; members have attr degrees 2,1,1 -> 4/3.
	// small has social degree 1; member 0 has attr degree 2 -> 2.
	for _, p := range pts {
		switch p.Degree {
		case 3:
			if math.Abs(p.Knn-4.0/3.0) > 1e-12 {
				t.Errorf("attr knn[3] = %v, want 4/3", p.Knn)
			}
		case 1:
			if p.Knn != 2 {
				t.Errorf("attr knn[1] = %v, want 2", p.Knn)
			}
		}
	}
	// Assortativity: larger attribute size paired with smaller attr
	// degrees -> negative correlation.
	if r := AttrAssortativity(g); r >= 0 {
		t.Errorf("attr assortativity = %v, want negative", r)
	}
}

func TestFineGrainedReciprocity(t *testing.T) {
	half := san.New(6, 1, 0)
	half.AddSocialNodes(6)
	a := half.AddAttrNode("shared", san.Generic)
	// Pair (0,1): share attribute, one-directional link 0->1.
	half.AddAttrEdge(0, a)
	half.AddAttrEdge(1, a)
	half.AddSocialEdge(0, 1)
	// Pair (2,3): no shared attribute, one-directional link 2->3.
	half.AddSocialEdge(2, 3)
	// Pair (4,5): mutual already; must be excluded.
	half.AddSocialEdge(4, 5)
	half.AddSocialEdge(5, 4)

	final := half.Clone()
	final.AddSocialEdge(1, 0) // (0,1) becomes reciprocated

	buckets := FineGrainedReciprocity(half, final, 10)
	var withAttr, withoutAttr ReciprocityBucket
	for _, b := range buckets {
		if b.Links == 0 {
			continue
		}
		if b.CommonAttrs == 1 {
			withAttr = b
		} else if b.CommonAttrs == 0 {
			withoutAttr = b
		}
	}
	if withAttr.Links != 1 || withAttr.Reciprocated != 1 {
		t.Errorf("shared-attribute bucket = %+v, want 1/1", withAttr)
	}
	if withoutAttr.Links != 1 || withoutAttr.Reciprocated != 0 {
		t.Errorf("no-attribute bucket = %+v, want 1/0", withoutAttr)
	}
	total := 0
	for _, b := range buckets {
		total += b.Links
	}
	if total != 2 {
		t.Errorf("total one-directional links = %d, want 2 (mutual pair excluded)", total)
	}
}

func TestReciprocityByAttrClassBinning(t *testing.T) {
	buckets := make([]ReciprocityBucket, 3*11)
	for i := range buckets {
		buckets[i].CommonSocial = i % 11
		buckets[i].CommonAttrs = i / 11
	}
	buckets[0*11+3] = ReciprocityBucket{CommonSocial: 3, Links: 10, Reciprocated: 5}
	buckets[2*11+7] = ReciprocityBucket{CommonSocial: 7, CommonAttrs: 2, Links: 4, Reciprocated: 4}
	out := ReciprocityByAttrClass(buckets, 10, 5)
	if got := out[0][0].Links; got != 10 {
		t.Errorf("class 0 bin 0 links = %d, want 10", got)
	}
	if got := out[2][1].Rate(); got != 1 {
		t.Errorf("class 2 bin 1 rate = %v, want 1", got)
	}
}

// Property: Algorithm 2's estimate is within the Hoeffding tolerance
// of the exact average on random graphs, using a much smaller K and a
// correspondingly looser ε than the paper's defaults.
func TestAlgorithm2HoeffdingBound(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed+1))
		n := 50 + rng.IntN(100)
		g := san.New(n, 0, 0)
		g.AddSocialNodes(n)
		for i := 0; i < 8*n; i++ {
			g.AddSocialEdge(san.NodeID(rng.IntN(n)), san.NodeID(rng.IntN(n)))
		}
		exact := AverageSocialClusteringExact(g)
		// K for ε = 0.05, ν = 100: failures allowed in 1% of runs.
		k := SampleSize(0.05, 100)
		approx := AverageSocialClustering(g, k, rng, (*san.SAN).SocialNeighbors)
		return math.Abs(exact-approx) <= 0.06
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
