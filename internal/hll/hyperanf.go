package hll

import (
	"sort"

	"repro/internal/san"
)

// NeighborhoodFunction holds the HyperANF output: N[t] estimates the
// number of ordered pairs (u, v) with a directed path from u to v of
// length at most t.  N[0] counts the nodes themselves.
type NeighborhoodFunction struct {
	N []float64
}

// Options configures a HyperANF run.
type Options struct {
	Precision uint8  // HLL precision p; 0 means 8 (256 registers, ~6.5% error)
	Seed      uint64 // hash seed
	MaxIter   int    // safety bound; 0 means 3*log2(n)+32
}

// HyperANF runs the iterative HyperANF algorithm on the directed social
// graph of g: counter(u) starts as {u} and each iteration unions in the
// counters of u's out-neighbors, so after t rounds counter(u)
// approximates the t-ball around u.  Iteration stops when no counter
// changes (exact convergence of the register sets).
//
// The counters live in two flat register matrices, cur and next, with
// counter u at words [u*w, (u+1)*w).  Each round is a Jacobi sweep that
// reads cur and writes next, and next[u] == cur[u] holds at the start
// of every round.  A counter that did not change last round is already
// contained in every predecessor's counter, so a node unions only the
// out-neighbors that changed, and only changed counters are copied back
// and re-estimated.  Per-node estimates are summed in node order, so
// each N[t] has the bits a full recount would give.
func HyperANF(g *san.SAN, opt Options) NeighborhoodFunction {
	p := opt.Precision
	if p == 0 {
		p = 8
	}
	checkPrecision(p)
	n := g.NumSocial()
	w := wordsPer(p)
	cur := make([]uint64, n*w)
	est := make([]float64, n)
	for u := 0; u < n; u++ {
		addWords(cur[u*w:(u+1)*w], p, Hash(uint64(u), opt.Seed))
		est[u] = estimateWords(cur[u*w:(u+1)*w], p)
	}
	next := append([]uint64(nil), cur...)
	maxIter := opt.MaxIter
	if maxIter <= 0 {
		maxIter = 32
		for s := n; s > 1; s >>= 1 {
			maxIter += 3
		}
	}
	// changed[u] records whether counter u changed in the previous
	// round; before the first round every counter counts as new.
	changed := make([]bool, n)
	for u := range changed {
		changed[u] = true
	}
	dirty := make([]int32, 0, n) // counters changed in this round
	nf := NeighborhoodFunction{N: []float64{sumFloats(est)}}
	for iter := 0; iter < maxIter; iter++ {
		dirty = dirty[:0]
		for u := 0; u < n; u++ {
			dst := next[u*w : (u+1)*w]
			grew := false
			for _, v := range g.Out(san.NodeID(u)) {
				if changed[v] && unionWords(dst, cur[int(v)*w:(int(v)+1)*w]) {
					grew = true
				}
			}
			if grew {
				dirty = append(dirty, int32(u))
			}
		}
		clear(changed)
		for _, u := range dirty {
			c := cur[int(u)*w : (int(u)+1)*w]
			copy(c, next[int(u)*w:(int(u)+1)*w])
			est[u] = estimateWords(c, p)
			changed[u] = true
		}
		nf.N = append(nf.N, sumFloats(est))
		if len(dirty) == 0 {
			break
		}
	}
	return nf
}

// sumFloats adds xs in index order.
func sumFloats(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// EffectiveDiameter returns the q-fraction effective diameter derived
// from the neighborhood function: the (interpolated) smallest distance
// d such that N(d) >= q * N(max).  The paper uses q = 0.9.
func (nf NeighborhoodFunction) EffectiveDiameter(q float64) float64 {
	if len(nf.N) == 0 {
		return 0
	}
	last := nf.N[len(nf.N)-1]
	target := q * last
	for d := 0; d < len(nf.N); d++ {
		if nf.N[d] >= target {
			if d == 0 {
				return 0
			}
			// Linear interpolation between d-1 and d.
			lo, hi := nf.N[d-1], nf.N[d]
			if hi <= lo {
				return float64(d)
			}
			return float64(d-1) + (target-lo)/(hi-lo)
		}
	}
	return float64(len(nf.N) - 1)
}

// ExactNeighborhoodFunction computes the exact neighborhood function by
// running a BFS from every node.  O(n·m): tests and small graphs only.
func ExactNeighborhoodFunction(g *san.SAN) NeighborhoodFunction {
	n := g.NumSocial()
	var counts []float64
	for u := 0; u < n; u++ {
		dist := g.BFSDirected(san.NodeID(u))
		for _, d := range dist {
			if d < 0 {
				continue
			}
			for len(counts) <= int(d) {
				counts = append(counts, 0)
			}
			counts[d]++
		}
	}
	// Convert per-distance counts into the cumulative N(t).
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	return NeighborhoodFunction{N: counts}
}

// EffectiveAttrDiameter estimates the effective attribute diameter of
// §4.1 by sampling: attribute distance dist(a, b) is the minimum social
// distance between a member of a and a member of b, plus one.  For each
// of k sampled attribute nodes it runs one multi-source BFS and records
// the distance to every other attribute with at least one member,
// then returns the q-percentile (interpolated) of the sampled distances.
//
// pick selects which attributes are BFS sources (e.g. round-robin or
// random); it receives the sample index and must return a valid AttrID.
func EffectiveAttrDiameter(g *san.SAN, k int, q float64, pick func(i int) san.AttrID) float64 {
	var dists []float64
	// minDistTo[b] over members is recomputed per source.
	for i := 0; i < k; i++ {
		a := pick(i)
		members := g.Members(a)
		if len(members) == 0 {
			continue
		}
		dist := g.MultiSourceBFSDirected(members)
		for b := 0; b < g.NumAttrs(); b++ {
			if san.AttrID(b) == a {
				continue
			}
			best := int32(-1)
			for _, u := range g.Members(san.AttrID(b)) {
				if d := dist[u]; d >= 0 && (best < 0 || d < best) {
					best = d
				}
			}
			if best >= 0 {
				dists = append(dists, float64(best)+1)
			}
		}
	}
	if len(dists) == 0 {
		return 0
	}
	return percentile(dists, q*100)
}

func percentile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := q / 100 * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}
