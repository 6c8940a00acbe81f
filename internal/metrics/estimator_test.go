package metrics

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/gplus"
	"repro/internal/san"
)

// sampleTriple is the one-sample-at-a-time reference for Algorithm 2:
// draw a uniform pair of distinct neighbors and return F ∈ {0, 1, 2},
// the number of directed links between them.  Centers with fewer than
// two neighbors score 0 and draw nothing.
func sampleTriple(g *san.SAN, nbrs []san.NodeID, rng *rand.Rand) int {
	d := len(nbrs)
	if d < 2 {
		return 0
	}
	i := rng.IntN(d)
	j := rng.IntN(d - 1)
	if j >= i {
		j++
	}
	v, w := nbrs[i], nbrs[j]
	f := 0
	if g.HasSocialEdge(v, w) {
		f++
	}
	if g.HasSocialEdge(w, v) {
		f++
	}
	return f
}

// averageClusteringSequential is Algorithm 2 over n centers, sampled
// and probed one triple at a time.
func averageClusteringSequential(g *san.SAN, k, n int, rng *rand.Rand, nbrs func(c int) []san.NodeID) float64 {
	if n == 0 || k <= 0 {
		return 0
	}
	total := 0
	for i := 0; i < k; i++ {
		total += sampleTriple(g, nbrs(rng.IntN(n)), rng)
	}
	return float64(total) / float64(2*k)
}

// pearsonTwoPass is the reference Pearson correlation: one pass over
// the pairs for the float means, a second for the moments.
func pearsonTwoPass(n int, each func(visit func(x, y float64))) float64 {
	if n == 0 {
		return 0
	}
	var mx, my float64
	each(func(x, y float64) {
		mx += x
		my += y
	})
	mx /= float64(n)
	my /= float64(n)
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

// socialAssortativityTwoPass and attrAssortativityTwoPass feed the
// edge samples of SocialAssortativity and AttrAssortativity to the
// two-pass reference.
func socialAssortativityTwoPass(g *san.SAN) float64 {
	return pearsonTwoPass(g.NumSocialEdges(), func(visit func(x, y float64)) {
		g.ForEachSocialEdge(func(u, v san.NodeID) {
			visit(float64(g.OutDegree(u)), float64(g.InDegree(v)))
		})
	})
}

func attrAssortativityTwoPass(g *san.SAN) float64 {
	return pearsonTwoPass(g.NumAttrEdges(), func(visit func(x, y float64)) {
		for a := 0; a < g.NumAttrs(); a++ {
			k := float64(g.SocialDegreeOfAttr(san.AttrID(a)))
			for _, u := range g.Members(san.AttrID(a)) {
				visit(k, float64(g.AttrDegree(u)))
			}
		}
	})
}

// estimatorGraphs returns the SANs the estimator oracles run on: the
// final day of a small gplus run, a core.Generate SAN, and a hand-built
// SAN whose social and attribute centers include degrees 0 and 1.
func estimatorGraphs(t *testing.T) map[string]*san.SAN {
	t.Helper()
	cfg := gplus.DefaultConfig()
	cfg.DailyBase = 30
	cfg.Days = 20
	cfg.Seed = 3
	sim := gplus.New(cfg)
	if err := sim.StreamTimelines(1, 0, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	day := sim.G

	small := san.New(6, 3, 8)
	small.AddSocialNodes(6) // node 5 stays isolated, node 4 has one neighbor
	for _, e := range [][2]san.NodeID{{0, 1}, {1, 0}, {1, 2}, {2, 0}, {3, 0}, {3, 2}, {4, 3}} {
		small.AddSocialEdge(e[0], e[1])
	}
	small.AddAttrNode("empty", san.Generic)
	one := small.AddAttrNode("one", san.Generic)
	small.AddAttrEdge(4, one)
	three := small.AddAttrNode("three", san.Generic)
	for _, u := range []san.NodeID{0, 1, 2} {
		small.AddAttrEdge(u, three)
	}

	return map[string]*san.SAN{
		"gplus":    day,
		"core":     core.Generate(core.NewDefaultParams(1500)),
		"degree01": small,
	}
}

// TestClusteringEstimatorsMatchSequential pins the draw-then-probe
// Algorithm 2 estimators to the one-triple-at-a-time oracle, bit for
// bit, at chunk-boundary sample counts and several worker counts, and
// checks that each leaves its rng in the oracle's state: the estimators
// that follow in a fold day share the stream.
func TestClusteringEstimatorsMatchSequential(t *testing.T) {
	graphs := estimatorGraphs(t)
	ks := []int{1, probeChunk - 1, probeChunk, probeChunk + 1, SampleSize(0.01, 100)}
	for _, procs := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for name, g := range graphs {
				var nc san.NeighborCache
				socialOracle := func(k int, rng *rand.Rand) float64 {
					return averageClusteringSequential(g, k, g.NumSocial(), rng, func(c int) []san.NodeID {
						return g.SocialNeighbors(san.NodeID(c))
					})
				}
				estimators := []struct {
					name string
					got  func(k int, rng *rand.Rand) float64
					want func(k int, rng *rand.Rand) float64
				}{
					{"social", func(k int, rng *rand.Rand) float64 {
						return AverageSocialClustering(g, k, rng, (*san.SAN).SocialNeighbors)
					}, socialOracle},
					{"social-cached", func(k int, rng *rand.Rand) float64 {
						return AverageSocialClustering(g, k, rng, nc.Neighbors)
					}, socialOracle},
					{"attr", func(k int, rng *rand.Rand) float64 {
						return AverageAttrClustering(g, k, rng)
					}, func(k int, rng *rand.Rand) float64 {
						return averageClusteringSequential(g, k, g.NumAttrs(), rng, func(c int) []san.NodeID {
							return g.Members(san.AttrID(c))
						})
					}},
				}
				for _, e := range estimators {
					for _, k := range ks {
						seed := uint64(k)*31 + uint64(len(name))
						gotRng := rand.New(rand.NewPCG(seed, 7))
						wantRng := rand.New(rand.NewPCG(seed, 7))
						got, want := e.got(k, gotRng), e.want(k, wantRng)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Errorf("%s %s k=%d: estimate %v, sequential %v", name, e.name, k, got, want)
						}
						if a, b := gotRng.Uint64(), wantRng.Uint64(); a != b {
							t.Errorf("%s %s k=%d: next rng draw %d, sequential %d", name, e.name, k, a, b)
						}
					}
				}
			}
		})
	}
}

// TestAssortativityMatchesTwoPass pins the degree-sum means to the
// two-pass float means bit for bit, on the estimator graphs plus the
// degenerate cases: no edges, one edge, and all-equal degrees (zero
// variance, the coefficient's 0 branch).
func TestAssortativityMatchesTwoPass(t *testing.T) {
	graphs := estimatorGraphs(t)
	graphs["empty"] = san.New(0, 0, 0)

	single := san.New(2, 1, 1)
	single.AddSocialNodes(2)
	single.AddSocialEdge(0, 1)
	single.AddAttrEdge(0, single.AddAttrNode("a", san.Generic))
	graphs["single-edge"] = single

	ring := san.New(5, 5, 5)
	ring.AddSocialNodes(5)
	for u := 0; u < 5; u++ {
		ring.AddSocialEdge(san.NodeID(u), san.NodeID((u+1)%5))
		a := ring.AddAttrNode(fmt.Sprint(u), san.Generic)
		ring.AddAttrEdge(san.NodeID(u), a)
		ring.AddAttrEdge(san.NodeID((u+1)%5), a)
	}
	graphs["equal-degrees"] = ring

	for name, g := range graphs {
		if got, want := SocialAssortativity(g), socialAssortativityTwoPass(g); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: social assortativity %v, two-pass %v", name, got, want)
		}
		if got, want := AttrAssortativity(g), attrAssortativityTwoPass(g); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: attribute assortativity %v, two-pass %v", name, got, want)
		}
	}
	for _, name := range []string{"empty", "single-edge", "equal-degrees"} {
		if r := SocialAssortativity(graphs[name]); r != 0 {
			t.Errorf("%s: social assortativity %v, want 0", name, r)
		}
	}
}
