package hll

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/gplus"
	"repro/internal/san"
	"repro/internal/stats"
)

// refCounter is the byte-per-register HyperLogLog counter that Counter
// replaced, kept as the reference for the word-packed layout.
type refCounter struct {
	p    uint8
	regs []uint8
}

func newRefCounter(p uint8) *refCounter {
	if p < 4 || p > 16 {
		panic("hll: precision must be in [4, 16]")
	}
	return &refCounter{p: p, regs: make([]uint8, 1<<p)}
}

func (c *refCounter) Add(hash uint64) {
	idx := hash >> (64 - c.p)
	rest := hash << c.p
	rank := uint8(bits.LeadingZeros64(rest)) + 1
	if max := 64 - c.p + 1; rank > max {
		rank = max
	}
	if rank > c.regs[idx] {
		c.regs[idx] = rank
	}
}

func (c *refCounter) Union(other *refCounter) bool {
	const high = 0x8080808080808080
	const low = 0x0101010101010101
	changed := false
	a, b := c.regs, other.regs
	for i := 0; i < len(a); i += 8 {
		x := binary.LittleEndian.Uint64(a[i:])
		y := binary.LittleEndian.Uint64(b[i:])
		if x == y {
			continue
		}
		ge := ((x | high) - y) & high
		mask := (ge >> 7 & low) * 0xFF
		if max := x&mask | y&^mask; max != x {
			binary.LittleEndian.PutUint64(a[i:], max)
			changed = true
		}
	}
	return changed
}

func (c *refCounter) Assign(other *refCounter) {
	copy(c.regs, other.regs)
}

func (c *refCounter) Estimate() float64 {
	m := float64(int(1) << c.p)
	var sum float64
	zeros := 0
	for _, r := range c.regs {
		sum += pow2neg[r]
		if r == 0 {
			zeros++
		}
	}
	alpha := alphaM(int(1) << c.p)
	e := alpha * m * m / sum
	if e <= 2.5*m && zeros > 0 {
		return m * math.Log(m/float64(zeros))
	}
	const two32 = 1 << 32
	if e > two32/30 {
		return -two32 * math.Log(1-e/two32)
	}
	return e
}

// oracleHyperANF is the HyperANF loop that the flat, change-driven
// sweep replaced: 2n separately allocated counters, every edge unioned
// and every counter re-estimated in every round.
func oracleHyperANF(g *san.SAN, opt Options) NeighborhoodFunction {
	p := opt.Precision
	if p == 0 {
		p = 8
	}
	n := g.NumSocial()
	cur := make([]*refCounter, n)
	next := make([]*refCounter, n)
	for i := 0; i < n; i++ {
		cur[i] = newRefCounter(p)
		cur[i].Add(Hash(uint64(i), opt.Seed))
		next[i] = newRefCounter(p)
	}
	maxIter := opt.MaxIter
	if maxIter <= 0 {
		maxIter = 32
		for s := n; s > 1; s >>= 1 {
			maxIter += 3
		}
	}
	nf := NeighborhoodFunction{N: []float64{oracleSumEstimates(cur)}}
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for u := 0; u < n; u++ {
			next[u].Assign(cur[u])
			for _, v := range g.Out(san.NodeID(u)) {
				if next[u].Union(cur[v]) {
					changed = true
				}
			}
		}
		cur, next = next, cur
		nf.N = append(nf.N, oracleSumEstimates(cur))
		if !changed {
			break
		}
	}
	return nf
}

func oracleSumEstimates(cs []*refCounter) float64 {
	var s float64
	for _, c := range cs {
		s += c.Estimate()
	}
	return s
}

// requireSameN fails unless HyperANF and the oracle return the same
// number of rounds and bit-identical N[t].
func requireSameN(t *testing.T, name string, g *san.SAN, opt Options) {
	t.Helper()
	got := HyperANF(g, opt).N
	want := oracleHyperANF(g, opt).N
	if len(got) != len(want) {
		t.Fatalf("%s %+v: len(N) = %d, oracle %d", name, opt, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s %+v: N[%d] = %v, oracle %v", name, opt, i, got[i], want[i])
		}
	}
}

// sinkGraph has isolated nodes, a chain ending in a sink, a cycle
// feeding the chain, and a node pointing at the sink only.
func sinkGraph() *san.SAN {
	g := san.New(20, 0, 0)
	g.AddSocialNodes(20)
	for i := 3; i < 12; i++ {
		g.AddSocialEdge(san.NodeID(i), san.NodeID(i+1))
	}
	for i := 14; i < 17; i++ {
		g.AddSocialEdge(san.NodeID(i), san.NodeID(i+1))
	}
	g.AddSocialEdge(17, 14)
	g.AddSocialEdge(15, 3)
	g.AddSocialEdge(19, 12)
	return g
}

// TestHyperANFMatchesOracle pins the flat-register, change-driven
// HyperANF to the reference loop bit for bit: same number of rounds
// and the same Float64bits for every N[t].
func TestHyperANFMatchesOracle(t *testing.T) {
	t.Run("gplus", func(t *testing.T) {
		cfg := gplus.DefaultConfig()
		cfg.DailyBase = 100
		cfg.Seed = 1
		days := map[int]bool{7: true, 21: true, 42: true, 70: true, 98: true}
		ran := 0
		err := gplus.New(cfg).StreamTimelines(1, 0, nil, nil, func(day int, g, _ *san.SAN) error {
			if !days[day] {
				return nil
			}
			ran++
			for _, p := range []uint8{5, 7} {
				requireSameN(t, fmt.Sprintf("gplus day %d", day), g, Options{Precision: p, Seed: uint64(day)})
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if ran != len(days) {
			t.Fatalf("checked %d gplus days, want %d", ran, len(days))
		}
	})
	t.Run("core", func(t *testing.T) {
		for _, seed := range []uint64{1, 2, 3} {
			p := core.NewDefaultParams(600)
			p.Seed = seed
			g := core.Generate(p)
			requireSameN(t, fmt.Sprintf("core seed %d", seed), g, Options{Precision: 8, Seed: seed})
		}
	})
	t.Run("sinks", func(t *testing.T) {
		for seed := uint64(0); seed < 4; seed++ {
			requireSameN(t, "sinks", sinkGraph(), Options{Precision: 6, Seed: seed})
		}
	})
	t.Run("tiny", func(t *testing.T) {
		empty := san.New(0, 0, 0)
		one := san.New(1, 0, 0)
		one.AddSocialNodes(1)
		for _, opt := range []Options{{}, {Precision: 4, Seed: 9}, {MaxIter: 1}} {
			requireSameN(t, "empty", empty, opt)
			requireSameN(t, "one node", one, opt)
		}
	})
	t.Run("precisions", func(t *testing.T) {
		small := core.Generate(core.NewDefaultParams(60))
		medium := core.Generate(core.NewDefaultParams(300))
		for p := uint8(4); p <= 16; p++ {
			g := medium
			if p > 11 {
				g = small
			}
			requireSameN(t, fmt.Sprintf("p=%d", p), g, Options{Precision: p, Seed: 5})
		}
		requireSameN(t, "p=0", medium, Options{Seed: 5})
	})
	t.Run("truncated", func(t *testing.T) {
		g := core.Generate(core.NewDefaultParams(300))
		for _, maxIter := range []int{1, 2} {
			requireSameN(t, fmt.Sprintf("MaxIter %d", maxIter), g, Options{Precision: 7, Seed: 2, MaxIter: maxIter})
			requireSameN(t, fmt.Sprintf("sinks MaxIter %d", maxIter), sinkGraph(), Options{Precision: 7, Seed: 2, MaxIter: maxIter})
		}
	})
}

// TestCounterMatchesReference checks the word-packed Counter against
// the byte-per-register reference: same Estimate bits after the same
// adds, and the same Union change reports.
func TestCounterMatchesReference(t *testing.T) {
	for p := uint8(4); p <= 16; p++ {
		a, b := NewCounter(p), NewCounter(p)
		ra, rb := newRefCounter(p), newRefCounter(p)
		for i := 0; i < 3000; i++ {
			h := Hash(uint64(i), uint64(p))
			if i%3 == 0 {
				a.Add(h)
				ra.Add(h)
			} else {
				b.Add(h)
				rb.Add(h)
			}
			if i%500 == 0 {
				if got, want := a.Union(b), ra.Union(rb); got != want {
					t.Fatalf("p=%d i=%d: Union reported %v, reference %v", p, i, got, want)
				}
			}
			if i%250 == 0 {
				if got, want := a.Estimate(), ra.Estimate(); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("p=%d i=%d: Estimate %v, reference %v", p, i, got, want)
				}
			}
		}
	}
}

// TestHyperANFPanicsOutOfRange keeps HyperANF's precision check: a
// precision outside [4, 16] (other than 0, the default) panics.
func TestHyperANFPanicsOutOfRange(t *testing.T) {
	for _, p := range []uint8{1, 3, 17} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("HyperANF precision %d did not panic", p)
				}
			}()
			HyperANF(chain(3), Options{Precision: p})
		}()
	}
}

// serialHyperANF is HyperANF with its sweep over the nodes as a single
// range on the caller's goroutine, the reference for the parallel
// sweep.
func serialHyperANF(g *san.SAN, opt Options) NeighborhoodFunction {
	p := opt.Precision
	if p == 0 {
		p = 8
	}
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
	changed := make([]bool, n)
	for u := range changed {
		changed[u] = true
	}
	dirty := make([]int32, 0, n)
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

// TestHyperANFMatchesSerial pins the range-parallel sweep to the
// single-range one bit for bit at GOMAXPROCS 1, 2 and 3, on graphs
// whose ranges split a chain, a cycle and runs of isolated nodes.
func TestHyperANFMatchesSerial(t *testing.T) {
	cycle := func() *san.SAN {
		// Isolated nodes, then a cycle crossing two range boundaries,
		// then more isolated nodes: two components plus singletons.
		n := 3*sweepRange + 5
		g := san.New(n, 0, 0)
		g.AddSocialNodes(n)
		lo, hi := sweepRange/2, 5*sweepRange/2
		for u := lo; u < hi; u++ {
			g.AddSocialEdge(san.NodeID(u), san.NodeID(u+1))
		}
		g.AddSocialEdge(san.NodeID(hi), san.NodeID(lo))
		return g
	}
	p := core.NewDefaultParams(3 * sweepRange)
	p.Seed = 4
	graphs := []struct {
		name string
		g    *san.SAN
	}{
		{"empty", san.New(0, 0, 0)},
		{"one node", chain(1)},
		{"odd chain", chain(2*sweepRange + 1)},
		{"isolated", func() *san.SAN { g := san.New(0, 0, 0); g.AddSocialNodes(sweepRange + 7); return g }()},
		{"cycle", cycle()},
		{"random SAN", core.Generate(p)},
	}
	for _, procs := range []int{1, 2, 3} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, tc := range graphs {
				for _, opt := range []Options{{Precision: 6, Seed: 3}, {Precision: 8, Seed: 1, MaxIter: 3}} {
					got, want := HyperANF(tc.g, opt).N, serialHyperANF(tc.g, opt).N
					if len(got) != len(want) {
						t.Fatalf("procs %d %s %+v: %d rounds, serial %d", procs, tc.name, opt, len(got), len(want))
					}
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("procs %d %s %+v: N[%d] = %v, serial %v", procs, tc.name, opt, i, got[i], want[i])
						}
					}
				}
			}
		}()
	}
}

// refPercentile is the interpolated percentile EffectiveAttrDiameter
// computed before it called stats.Percentile, kept as the reference.
func refPercentile(xs []float64, q float64) float64 {
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

// TestAttrDiameterPercentileMatchesOracle pins that stats.Percentile
// returns refPercentile's bits on attribute-distance samples (small
// positive integers), at the quantiles the figures use and at the ends.
func TestAttrDiameterPercentileMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 9))
	for trial := 0; trial < 500; trial++ {
		xs := make([]float64, 1+rng.IntN(300))
		for i := range xs {
			xs[i] = float64(1 + rng.IntN(12))
		}
		for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
			want, got := refPercentile(xs, q*100), stats.Percentile(xs, q*100)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d, n=%d, q=%v: stats.Percentile %v, reference %v", trial, len(xs), q, got, want)
			}
		}
	}
}
