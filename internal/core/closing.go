package core

import (
	"math/rand/v2"

	"repro/internal/san"
)

// ClosingKind selects the triangle-closing building block of §5.2.
type ClosingKind uint8

const (
	// CloseBaseline picks a node uniformly from the 2-hop social
	// neighborhood of the source.
	CloseBaseline ClosingKind = iota
	// CloseRR is Random-Random: a uniform social neighbor w, then a
	// uniform social neighbor of w.
	CloseRR
	// CloseRRSAN is Random-Random-SAN: the first hop is drawn from the
	// union of social and attribute neighbors (enabling focal closure),
	// the second from w's social neighbors.
	CloseRRSAN
)

// String names the closing kind.
func (k ClosingKind) String() string {
	switch k {
	case CloseBaseline:
		return "baseline"
	case CloseRR:
		return "RR"
	case CloseRRSAN:
		return "RR-SAN"
	default:
		return "unknown"
	}
}

// Scratch bundles the reusable per-simulation buffers of the sampling
// building blocks (Attacher candidate tables, Closer neighborhood
// buffers).  One Scratch serves one running simulation at a time;
// sequential simulations (a sweep worker draining scenarios) can share
// one arena, concurrently running simulations must each have their
// own.
type Scratch struct {
	sample sampleScratch
	closer closerScratch
}

// NewScratch returns an empty scratch arena; buffers grow on first use
// and are retained across simulations.
func NewScratch() *Scratch { return &Scratch{} }

// Closer samples triangle-closing targets.
type Closer struct {
	Kind ClosingKind
	// FocalWeight (fc) scales the probability mass of attribute
	// neighbors in the RR-SAN first hop: an attribute neighbor carries
	// weight fc relative to a social neighbor's weight 1.  fc = 1 is
	// the plain uniform union of §5.2; fc = 0 disables focal closure
	// (recovering RR); Figure 19 sweeps fc.
	FocalWeight float64

	scr *closerScratch
}

// closerScratch holds the per-simulation neighborhood state: the
// memoized neighbor-union cache behind the RR hops and the 2-hop
// visited index for the baseline model.
type closerScratch struct {
	hop  TwoHopScratch
	nbrs san.NeighborCache
}

// UseScratch points the closer at the shared per-simulation scratch
// arena, replacing its private buffers.  The arena must not be shared
// by concurrently running simulations; stale memoized neighborhoods
// from a previous simulation are invalidated here.
func (c *Closer) UseScratch(s *Scratch) {
	c.scr = &s.closer
	c.scr.hop.nbrs.Reset()
	c.scr.nbrs.Reset()
}

func (c *Closer) scratch() *closerScratch {
	if c.scr == nil {
		c.scr = &closerScratch{}
	}
	return c.scr
}

// Sample draws a triangle-closing target for u, excluding u itself and
// existing out-neighbors.  It returns -1 when u's 2-hop neighborhood
// has no valid candidate (callers fall back to preferential attachment).
func (c *Closer) Sample(g *san.SAN, u san.NodeID, rng *rand.Rand) san.NodeID {
	switch c.Kind {
	case CloseBaseline:
		return c.sampleBaseline(g, u, rng)
	default:
		return c.sampleRR(g, u, rng)
	}
}

func (c *Closer) sampleRR(g *san.SAN, u san.NodeID, rng *rand.Rand) san.NodeID {
	scr := c.scratch()
	// The first-hop candidate sets depend only on u; computing them
	// once outside the retry loop consumes no rng draws, so the stream
	// is unchanged while the per-try neighbor rescans disappear.
	social := scr.nbrs.Neighbors(g, u)
	var attrs []san.AttrID
	var ws, wa float64
	if c.Kind == CloseRRSAN {
		attrs = g.Attrs(u)
		ws = float64(len(social))
		wa = c.FocalWeight * float64(len(attrs))
		if ws+wa <= 0 {
			return -1
		}
	} else if len(social) == 0 {
		return -1
	}
	for tries := 0; tries < 32; tries++ {
		var second []san.NodeID
		if c.Kind == CloseRRSAN {
			// firstHopSAN: pick the intermediate from Γs(u) ∪ Γa(u) with
			// attribute neighbors weighted by FocalWeight; an attribute
			// intermediate contributes its member list.
			if rng.Float64()*(ws+wa) < wa {
				second = g.Members(attrs[rng.IntN(len(attrs))])
			} else if len(social) > 0 {
				w := social[rng.IntN(len(social))]
				second = scr.nbrs.Neighbors(g, w)
			}
		} else {
			w := social[rng.IntN(len(social))]
			second = scr.nbrs.Neighbors(g, w)
		}
		if len(second) == 0 {
			continue
		}
		v := second[rng.IntN(len(second))]
		if v != u && !g.HasSocialEdge(u, v) {
			return v
		}
	}
	return -1
}

func (c *Closer) sampleBaseline(g *san.SAN, u san.NodeID, rng *rand.Rand) san.NodeID {
	hood := c.scratch().hop.TwoHop(g, u)
	if len(hood) == 0 {
		return -1
	}
	for tries := 0; tries < 32; tries++ {
		v := hood[rng.IntN(len(hood))]
		if !g.HasSocialEdge(u, v) {
			return v
		}
	}
	return -1
}

// TwoHopScratch computes 2-hop neighborhoods with reusable buffers: an
// epoch-stamped visited index instead of a fresh map per call, and a
// memoized neighbor cache for the hop expansions.  The zero value is
// ready to use.  A TwoHopScratch serves one goroutine and one evolving
// SAN at a time (point it at a different SAN only after resetting the
// embedded cache); concurrent simulations must each own one.
type TwoHopScratch struct {
	mark san.Marker
	nbrs san.NeighborCache
	out  []san.NodeID
}

// TwoHop returns the distinct social nodes within a 2-hop radius of u,
// in the same order as the package-level TwoHop.  The result is
// scratch-owned and valid until the next call.
func (s *TwoHopScratch) TwoHop(g *san.SAN, u san.NodeID) []san.NodeID {
	s.mark.Reset(g.NumSocial())
	s.mark.Mark(u)
	out := s.out[:0]
	for _, w := range s.nbrs.Neighbors(g, u) {
		if !s.mark.Marked(w) {
			s.mark.Mark(w)
			out = append(out, w)
		}
		for _, v := range s.nbrs.Neighbors(g, w) {
			if !s.mark.Marked(v) {
				s.mark.Mark(v)
				out = append(out, v)
			}
		}
	}
	s.out = out
	return out
}

// TwoHop returns the distinct social nodes within a 2-hop radius of u
// (direct neighbors and neighbors of neighbors), excluding u itself.
// Exported for the likelihood experiments, which need the baseline
// candidate set of §5.2.  The result is freshly allocated; replay
// loops should reuse a TwoHopScratch instead.
func TwoHop(g *san.SAN, u san.NodeID) []san.NodeID {
	var s TwoHopScratch
	return append([]san.NodeID(nil), s.TwoHop(g, u)...)
}
