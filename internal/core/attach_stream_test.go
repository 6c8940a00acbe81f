package core

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/san"
)

// buildAttachGraph generates a SAN with social and attribute structure
// for the sampler equivalence and property tests.
func buildAttachGraph(tb testing.TB) *san.SAN {
	tb.Helper()
	p := NewDefaultParams(1200)
	p.Seed = 99
	return Generate(p)
}

// notifyAll replays g into the attacher hooks, honoring the EdgeAdded
// contract (newIn is the indegree the target just reached, so the
// incremental weights telescope to (d_in+1)^α).
func notifyAll(at *Attacher, g *san.SAN) {
	for i := 0; i < g.NumSocial(); i++ {
		at.NodeAdded()
	}
	deg := make([]int, g.NumSocial())
	g.ForEachSocialEdge(func(u, v san.NodeID) {
		deg[v]++
		at.EdgeAdded(v, deg[v])
	})
}

// sampleNaive is the reference sampler Sample is pinned against: the
// same control flow and rng-draw discipline, but every weighted draw is
// resolved with a linear cumulative scan instead of the Fenwick descent
// (drawBase) or the prefix binary search (pickShared).
func sampleNaive(at *Attacher, g *san.SAN, u san.NodeID, rng *rand.Rand) san.NodeID {
	if g.NumSocial() < 2 {
		return -1
	}
	attrAware := at.Kind == AttachLAPA || at.Kind == AttachPAPA
	if attrAware && at.Heuristic {
		if v := at.sampleHeuristic(g, u, rng); v >= 0 {
			return v
		}
		return sampleBaseNaive(at, g, u, rng)
	}
	if !attrAware || at.Beta == 0 || g.AttrDegree(u) == 0 {
		return sampleBaseNaive(at, g, u, rng)
	}
	shared, prefix, bonusTotal, baseTotal, ok := at.prepareMixture(g, u)
	if !ok {
		if v := at.sampleHeuristic(g, u, rng); v >= 0 {
			return v
		}
		return sampleBaseNaive(at, g, u, rng)
	}
	for tries := 0; tries < 64; tries++ {
		var v san.NodeID = -1
		if rng.Float64()*(baseTotal+bonusTotal) < bonusTotal {
			x := rng.Float64() * bonusTotal
			for i := range prefix {
				if prefix[i] >= x {
					v = shared[i].v
					break
				}
			}
		} else {
			v = drawBaseNaive(at, g, rng)
		}
		if v >= 0 && v != u && !g.HasSocialEdge(u, v) {
			return v
		}
	}
	return at.fallbackScan(g, u, rng)
}

// sampleBaseNaive is sampleBase over drawBaseNaive.
func sampleBaseNaive(at *Attacher, g *san.SAN, u san.NodeID, rng *rand.Rand) san.NodeID {
	for tries := 0; tries < 64; tries++ {
		v := drawBaseNaive(at, g, rng)
		if v >= 0 && v != u && !g.HasSocialEdge(u, v) {
			return v
		}
	}
	return at.fallbackScan(g, u, rng)
}

// drawBaseNaive is drawBase with the general-α draw resolved by a
// linear cumulative scan over the per-node weights (d_in+1)^α.
func drawBaseNaive(at *Attacher, g *san.SAN, rng *rand.Rand) san.NodeID {
	n := g.NumSocial()
	if n == 0 {
		return -1
	}
	if at.Alpha == 0 {
		return san.NodeID(rng.IntN(n))
	}
	if at.Alpha == 1 {
		i := rng.IntN(n + len(at.ballot))
		if i < n {
			return san.NodeID(i)
		}
		return at.ballot[i-n]
	}
	t := at.fenwick()
	if t.Len() == 0 {
		return -1
	}
	x := rng.Float64() * t.Total()
	var cum float64
	last := t.Len() - 1
	for v := 0; v <= last; v++ {
		cum += at.powAlpha(float64(g.InDegree(san.NodeID(v))) + 1)
		if cum > x {
			return san.NodeID(v)
		}
	}
	return san.NodeID(last)
}

// TestSampleStreamEquivalence pins the sampler invariant: the Fenwick
// /binary-search sampler and the naive linear-scan reference
// (sampleNaive) consume the same uniform draws and pick the same node,
// for every AttachKind and exponent regime, over an evolving graph.
// The rng states are compared afterwards, so the test also proves the
// two samplers consumed *exactly* the same number of draws.
func TestSampleStreamEquivalence(t *testing.T) {
	cases := []struct {
		name        string
		kind        AttachKind
		alpha, beta float64
		heuristic   bool
	}{
		{"uniform", AttachUniform, 0, 0, false},
		{"pa-linear", AttachPA, 1, 0, false},
		{"pa-sublinear", AttachPA, 0.5, 0, false},
		{"pa-superlinear", AttachPA, 1.7, 0, false},
		{"lapa", AttachLAPA, 1, 200, false},
		{"lapa-sublinear", AttachLAPA, 0.6, 40, false},
		{"lapa-heuristic", AttachLAPA, 1, 200, true},
		{"papa", AttachPAPA, 1, 2, false},
		{"papa-general", AttachPAPA, 1.4, 1.2, false},
	}
	const draws = 10000
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := buildAttachGraph(t)
			fast := NewAttacher(tc.kind, tc.alpha, tc.beta)
			naive := NewAttacher(tc.kind, tc.alpha, tc.beta)
			fast.Heuristic, naive.Heuristic = tc.heuristic, tc.heuristic
			notifyAll(fast, g)
			notifyAll(naive, g)
			rngF := rand.New(rand.NewPCG(7, 11))
			rngN := rand.New(rand.NewPCG(7, 11))
			n := g.NumSocial()
			for i := 0; i < draws; i++ {
				u := san.NodeID(i % n)
				vf := fast.Sample(g, u, rngF)
				vn := sampleNaive(naive, g, u, rngN)
				if vf != vn {
					t.Fatalf("draw %d (source %d): fast sampler picked %d, naive picked %d", i, u, vf, vn)
				}
				// Evolve the shared graph so the incremental Fenwick
				// maintenance (EdgeAdded deltas) is exercised, not just
				// the initial tree.
				if vf >= 0 && g.AddSocialEdge(u, vf) {
					d := g.InDegree(vf)
					fast.EdgeAdded(vf, d)
					naive.EdgeAdded(vf, d)
				}
			}
			if rngF.Uint64() != rngN.Uint64() {
				t.Fatal("samplers consumed different numbers of rng draws")
			}
		})
	}
}

// TestLogProbMatchesSamplerWeights is the property test tying
// Attacher.LogProb to the weights Sample actually draws from:
// probabilities over the full candidate set sum to 1, and the
// probability ratio of any two candidates equals the ratio of the
// sampler weights (d_in+1)^α · (1 + bonus).
func TestLogProbMatchesSamplerWeights(t *testing.T) {
	g := buildAttachGraph(t)
	n := g.NumSocial()
	cases := []struct {
		kind        AttachKind
		alpha, beta float64
	}{
		{AttachUniform, 0, 0},
		{AttachPA, 1, 0},
		{AttachPA, 0.5, 0},
		{AttachLAPA, 1, 200},
		{AttachPAPA, 1.3, 1.5},
	}
	weight := func(at *Attacher, u, v san.NodeID) float64 {
		w := math.Pow(float64(g.InDegree(v))+1, at.Alpha)
		if at.Kind == AttachLAPA || at.Kind == AttachPAPA {
			w *= 1 + at.bonusFactor(g.CommonAttrs(u, v))
		}
		return w
	}
	rng := rand.New(rand.NewPCG(3, 5))
	for _, tc := range cases {
		at := NewAttacher(tc.kind, tc.alpha, tc.beta)
		for trial := 0; trial < 5; trial++ {
			u := san.NodeID(rng.IntN(n))
			// Σ_v P(v) over the full candidate set must be 1.
			sum := 0.0
			for v := 0; v < n; v++ {
				if san.NodeID(v) == u {
					continue
				}
				sum += math.Exp(at.LogProb(g, u, san.NodeID(v), tc.alpha, tc.beta, tc.kind))
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("%v α=%g β=%g: probabilities sum to %g, want 1", tc.kind, tc.alpha, tc.beta, sum)
			}
			// P(v1)/P(v2) must equal w(v1)/w(v2) for the sampler's weights.
			v1 := san.NodeID(rng.IntN(n))
			v2 := san.NodeID(rng.IntN(n))
			if v1 == u || v2 == u || v1 == v2 {
				continue
			}
			lr := at.LogProb(g, u, v1, tc.alpha, tc.beta, tc.kind) - at.LogProb(g, u, v2, tc.alpha, tc.beta, tc.kind)
			wr := math.Log(weight(at, u, v1) / weight(at, u, v2))
			if math.Abs(lr-wr) > 1e-9 {
				t.Fatalf("%v α=%g β=%g: log-ratio %g, sampler weights give %g", tc.kind, tc.alpha, tc.beta, lr, wr)
			}
		}
	}
}

// TestFenwickAgainstBruteForce pins the Fenwick tree primitives against
// a plain prefix-sum array under a random workload of appends, weight
// updates, and searches.
func TestFenwickAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 23))
	f := newWeightFenwick(4)
	var w []float64
	for step := 0; step < 5000; step++ {
		switch {
		case len(w) == 0 || rng.Float64() < 0.3:
			x := 1 + rng.Float64()*3
			f.Append(x)
			w = append(w, x)
		case rng.Float64() < 0.5:
			i := rng.IntN(len(w))
			d := rng.Float64() * 2
			f.Add(i, d)
			w[i] += d
		default:
			total := 0.0
			for _, x := range w {
				total += x
			}
			if math.Abs(total-f.Total()) > 1e-6*total {
				t.Fatalf("step %d: tree total %g, brute force %g", step, f.Total(), total)
			}
			x := rng.Float64() * total
			got := f.Search(x)
			cum, want := 0.0, len(w)-1
			for i, wi := range w {
				cum += wi
				if cum > x {
					want = i
					break
				}
			}
			if got != want {
				// Partial sums associate differently in the tree; allow
				// a boundary disagreement only when x is within rounding
				// of the shared prefix boundary.
				cum = 0
				for i := 0; i <= min(got, want); i++ {
					cum += w[i]
				}
				if math.Abs(cum-x) > 1e-9*math.Max(cum, x) {
					t.Fatalf("step %d: search(%g) = %d, brute force %d", step, x, got, want)
				}
			}
		}
	}
}

// buildSharedSorted is the reference buildShared: count each
// candidate's shared attributes, then comparison-sort the touched IDs.
func buildSharedSorted(g *san.SAN, u san.NodeID, limit int) ([]sharedCand, bool) {
	count := make(map[san.NodeID]int32)
	var touched []san.NodeID
	enum := 0
	for _, a := range g.Attrs(u) {
		members := g.Members(a)
		if enum += len(members); enum > limit {
			return nil, false
		}
		for _, v := range members {
			if v == u {
				continue
			}
			if count[v] == 0 {
				touched = append(touched, v)
			}
			count[v]++
		}
	}
	slices.Sort(touched)
	var shared []sharedCand
	for _, v := range touched {
		shared = append(shared, sharedCand{v: v, a: int(count[v])})
	}
	return shared, true
}

// TestBuildSharedMatchesSortedCount pins the radix-ordered candidate
// list to the count-and-sort oracle, candidate for candidate, on three
// graphs: a SAN whose member lists are shuffled and whose IDs need
// three radix passes, a NewModel seed graph (one pass; each seed
// attribute lists its creator first), and a Generate run (two passes).
// A small limit makes some calls bail out mid-count, so the scratch
// must come back clean for the next call.
func TestBuildSharedMatchesSortedCount(t *testing.T) {
	shuffled := func() *san.SAN {
		rng := rand.New(rand.NewPCG(3, 5))
		const n = 70000
		g := san.New(n, 40, 0)
		g.AddSocialNodes(n)
		for a := 0; a < 40; a++ {
			id := g.AddAttrNode(string(rune('A'+a)), san.Generic)
			for k := 5 + rng.IntN(200); k > 0; k-- {
				g.AddAttrEdge(san.NodeID(rng.IntN(n)), id)
			}
			for k := 3; k > 0; k-- {
				g.AddAttrEdge(san.NodeID(rng.IntN(300)), id) // common low IDs
			}
		}
		return g
	}
	descending := func(g *san.SAN) bool {
		for a := 0; a < g.NumAttrs(); a++ {
			if !slices.IsSorted(g.Members(san.AttrID(a))) {
				return true
			}
		}
		return false
	}
	graphs := []struct {
		name string
		g    *san.SAN
	}{
		{"shuffled", shuffled()},
		{"seed", NewModel(NewDefaultParams(100)).G},
		{"generate", buildAttachGraph(t)},
	}
	for _, tc := range graphs {
		if !descending(tc.g) {
			t.Fatalf("%s: every member list is ascending; the graph does not test the order", tc.name)
		}
		at := NewAttacher(AttachLAPA, 1, 200)
		for _, limit := range []int{4000, 30} {
			bailed := 0
			for u := 0; u < tc.g.NumSocial(); u++ {
				if tc.g.AttrDegree(san.NodeID(u)) == 0 {
					continue
				}
				got, okGot := at.buildShared(tc.g, san.NodeID(u), limit)
				want, okWant := buildSharedSorted(tc.g, san.NodeID(u), limit)
				if okGot != okWant || !slices.Equal(got, want) {
					t.Fatalf("%s limit %d source %d: buildShared = %v (%v), oracle %v (%v)", tc.name, limit, u, got, okGot, want, okWant)
				}
				if !okGot {
					bailed++
				}
			}
			if limit == 30 && bailed == 0 && tc.name != "seed" {
				t.Errorf("%s: no call exceeded limit %d; the bail-out path went untested", tc.name, limit)
			}
		}
	}
}

// TestBuildSharedLimitBoundary pins the limit check: u's enumeration
// is the summed size of its communities (u itself included), one of
// exactly limit stays exact, and one of limit+1 falls back.
func TestBuildSharedLimitBoundary(t *testing.T) {
	g := san.New(12, 2, 0)
	g.AddSocialNodes(12)
	a := g.AddAttrNode("a", san.Generic)
	b := g.AddAttrNode("b", san.Generic)
	for v := 0; v < 7; v++ {
		g.AddAttrEdge(san.NodeID(v), a)
	}
	for _, v := range []int{0, 3, 9, 11} {
		g.AddAttrEdge(san.NodeID(v), b)
	}
	const u, enum = 0, 7 + 4
	at := NewAttacher(AttachLAPA, 1, 200)
	for _, limit := range []int{enum, enum - 1, enum} {
		got, ok := at.buildShared(g, u, limit)
		want, wantOK := buildSharedSorted(g, u, limit)
		if ok != (limit >= enum) || ok != wantOK || !slices.Equal(got, want) {
			t.Fatalf("limit %d, enumeration %d: buildShared = %v (%v), oracle %v (%v)", limit, enum, got, ok, want, wantOK)
		}
	}
}
