package metrics

import "repro/internal/san"

// This file holds the incremental side of the measurement suite: exact
// accumulators that advance from one day's delta in O(new links)
// instead of re-extracting O(|V| + |E|) state per day.  Every
// accumulator answers exactly the values its batch counterpart
// computes on the same graph (the histograms feed
// stats.LogMomentsHist / stats.FitPowerLawHist, whose summation order
// matches the batch entry points bitwise).

// DegreeHist is an exact integer histogram of node degrees: Counts()[k]
// is the number of nodes currently at degree k.  The zero value is an
// empty histogram.
type DegreeHist struct {
	counts []int
}

// Add records n new nodes entering at degree k.
func (h *DegreeHist) Add(k, n int) {
	h.grow(k)
	h.counts[k] += n
}

// Move shifts one node from degree `from` to degree `to`.
func (h *DegreeHist) Move(from, to int) {
	h.grow(to)
	h.counts[from]--
	h.counts[to]++
}

func (h *DegreeHist) grow(k int) {
	for len(h.counts) <= k {
		h.counts = append(h.counts, 0)
	}
}

// Counts exposes the histogram; the slice is owned by the histogram
// and valid until the next mutation.
func (h *DegreeHist) Counts() []int { return h.counts }

// SocialDegreeAccum folds social-edge growth into out- and in-degree
// histograms.  Feed it every new node and directed edge of each day's
// delta (day 0 included); Out and In then mirror what OutDegrees /
// InDegrees would extract from the full graph.
type SocialDegreeAccum struct {
	out, in []int32
	Out, In DegreeHist
}

// NewSocialDegreeAccum returns an accumulator over an empty graph.
func NewSocialDegreeAccum() *SocialDegreeAccum { return &SocialDegreeAccum{} }

// AddNodes records n new social nodes (entering with degree 0).
func (a *SocialDegreeAccum) AddNodes(n int) {
	for i := 0; i < n; i++ {
		a.out = append(a.out, 0)
		a.in = append(a.in, 0)
	}
	a.Out.Add(0, n)
	a.In.Add(0, n)
}

// AddEdge records the new directed social link u -> v.
func (a *SocialDegreeAccum) AddEdge(u, v san.NodeID) {
	a.Out.Move(int(a.out[u]), int(a.out[u])+1)
	a.out[u]++
	a.In.Move(int(a.in[v]), int(a.in[v])+1)
	a.in[v]++
}

// AttrDegreeAccum folds attribute-link growth into the two attribute
// degree histograms of §4.1: User counts attributes per social node
// (AttrDegrees) and Attr counts members per attribute node
// (AttrSocialDegrees).
type AttrDegreeAccum struct {
	userDeg   []int32
	memberDeg []int32
	User      DegreeHist
	Attr      DegreeHist
}

// NewAttrDegreeAccum returns an accumulator over an empty graph.
func NewAttrDegreeAccum() *AttrDegreeAccum { return &AttrDegreeAccum{} }

// AddUsers records n new social nodes.
func (a *AttrDegreeAccum) AddUsers(n int) {
	for i := 0; i < n; i++ {
		a.userDeg = append(a.userDeg, 0)
	}
	a.User.Add(0, n)
}

// AddAttrs records n new attribute nodes.
func (a *AttrDegreeAccum) AddAttrs(n int) {
	for i := 0; i < n; i++ {
		a.memberDeg = append(a.memberDeg, 0)
	}
	a.Attr.Add(0, n)
}

// AddLink records the new attribute link between social node u and
// attribute node at.
func (a *AttrDegreeAccum) AddLink(u san.NodeID, at san.AttrID) {
	a.User.Move(int(a.userDeg[u]), int(a.userDeg[u])+1)
	a.userDeg[u]++
	a.Attr.Move(int(a.memberDeg[at]), int(a.memberDeg[at])+1)
	a.memberDeg[at]++
}
