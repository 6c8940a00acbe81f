// Package san implements the Social-Attribute Network (SAN) data
// structure from Gong et al., "Evolution of Social-Attribute Networks"
// (IMC 2012).
//
// A SAN augments a directed social graph G = (Vs, Es) with M binary
// attribute nodes Va and undirected attribute links Ea between social
// nodes and the attributes they declare.  Social links are directed
// ("u has v in circles"); attribute links are undirected.
//
// The zero value of SAN is not ready to use; construct instances with
// New.  SAN is not safe for concurrent mutation; concurrent readers are
// fine once mutation has stopped.
package san

import (
	"fmt"
	"maps"
	"slices"
)

// NodeID identifies a social node.  IDs are dense and start at 0.
type NodeID int32

// AttrID identifies an attribute node.  IDs are dense and start at 0,
// in a namespace separate from NodeID.
type AttrID int32

// AttrType classifies an attribute node.  The paper uses four profile
// attribute types; Generic covers synthetic or untyped attributes.
type AttrType uint8

// Attribute types observed in the Google+ dataset.
const (
	Generic AttrType = iota
	School
	Major
	Employer
	City
	numAttrTypes
)

// NumAttrTypes is the number of defined attribute types; AttrType
// values are always below it, so it sizes dense per-type tables.
const NumAttrTypes = int(numAttrTypes)

// AttrTypes lists the four profile attribute types from the paper, in
// the order used by per-type experiments (Figure 13b).
var AttrTypes = []AttrType{City, School, Major, Employer}

// ValidAttrType reports whether t is one of the defined attribute
// types.  Decoders use it to reject corrupt serialized type bytes.
func ValidAttrType(t AttrType) bool { return t < numAttrTypes }

// String returns the human-readable name of the attribute type.
func (t AttrType) String() string {
	switch t {
	case School:
		return "School"
	case Major:
		return "Major"
	case Employer:
		return "Employer"
	case City:
		return "City"
	default:
		return "Generic"
	}
}

// probeLinear bounds the linear-scan fallback of sorted membership
// probes: lists at or below this length are scanned directly (a handful
// of comparisons beats binary-search bookkeeping), longer lists are
// binary-searched.
const probeLinear = 12

// adjSmallCap is the capacity of the arena windows fresh adjacency
// lists start in (see arena).
const adjSmallCap = 4

// arena hands out small fixed-capacity windows backing fresh adjacency
// lists.  Most social nodes end with only a handful of links, so
// growing every per-node slice through the allocator's 1→2→4 ladder
// dominates allocation counts at simulation scale; a window absorbs
// the first adjSmallCap appends for free, and lists that outgrow it
// migrate to the allocator on the next append (the window is
// capacity-clamped, so append never bleeds into a neighboring window).
type arena[T any] struct {
	chunk []T
}

const arenaChunk = 8192

// window reserves a zero-length, capacity-n slice from the arena.
func (a *arena[T]) window(n int) []T {
	if len(a.chunk)+n > cap(a.chunk) {
		a.chunk = make([]T, 0, arenaChunk)
	}
	off := len(a.chunk)
	a.chunk = a.chunk[: off+n : cap(a.chunk)]
	return a.chunk[off : off : off+n]
}

// grow appends v to s, seeding fresh lists from the arena.
func (a *arena[T]) grow(s []T, v T) []T {
	if s == nil {
		s = a.window(adjSmallCap)
	}
	return append(s, v)
}

// SAN is a social-attribute network: a directed social graph over
// social nodes plus undirected links from social nodes to attribute
// nodes.  All mutating methods are amortized O(1) except where noted.
//
// Adjacency is kept twice per social node: in insertion order (the
// order samplers index into and serialization iterates) and in sorted
// order (the membership index behind HasSocialEdge/HasAttrEdge).  The
// sorted copies replace the packed-edge hash sets of earlier versions:
// membership probes are a short linear scan or a binary search with no
// hashing and no per-edge map bucket allocations.
type SAN struct {
	out  [][]NodeID // social out-adjacency ("in your circles"), insertion order
	in   [][]NodeID // social in-adjacency ("have you in circles"), insertion order
	attr [][]AttrID // attribute neighbors of each social node, insertion order

	outSorted  [][]NodeID // sorted copy of out, for membership probes
	attrSorted [][]AttrID // sorted copy of attr, for membership probes

	members [][]NodeID // social neighbors of each attribute node

	attrType  []AttrType
	attrName  []string
	attrIndex map[string]AttrID

	// attrMaxIn tracks, per attribute, the maximum social in-degree over
	// the attribute's members.  Links are only ever added, so the max is
	// maintained exactly by two hooks: a member gaining an in-edge and a
	// node joining the attribute.  Samplers use it as a rejection
	// envelope without rescanning the member list.
	attrMaxIn []int32

	socialEdgeCount int
	attrEdgeCount   int

	mutual int // number of ordered social edges whose reverse also exists

	nodeArena arena[NodeID]
	attrArena arena[AttrID]
}

// New returns an empty SAN with capacity hints for the expected number
// of social nodes, attribute nodes and social edges.  Hints may be
// zero.  edgeHint sizes the shared adjacency arenas (edges land in
// per-node lists, so the hint is consumed in adjSmallCap windows).
func New(socialHint, attrHint, edgeHint int) *SAN {
	g := &SAN{
		out:        make([][]NodeID, 0, socialHint),
		in:         make([][]NodeID, 0, socialHint),
		attr:       make([][]AttrID, 0, socialHint),
		outSorted:  make([][]NodeID, 0, socialHint),
		attrSorted: make([][]AttrID, 0, socialHint),
		members:    make([][]NodeID, 0, attrHint),
		attrType:   make([]AttrType, 0, attrHint),
		attrName:   make([]string, 0, attrHint),
		attrIndex:  make(map[string]AttrID, attrHint),
		attrMaxIn:  make([]int32, 0, attrHint),
	}
	if c := 3 * adjSmallCap * socialHint; c > arenaChunk && edgeHint > 0 {
		// The out, in and sorted lists of every node open with an arena
		// window; one right-sized chunk avoids chunk churn on big builds.
		g.nodeArena.chunk = make([]NodeID, 0, min(c, 4*edgeHint))
	}
	return g
}

// containsID reports whether sorted list s contains v: binary
// narrowing while the window is large, a linear tail scan once it is
// small.  Hand-rolled over the concrete ID types — this probe is the
// single hottest operation of the simulator, and the func-comparator
// library search costs ~3x as much per call.
func containsID[T NodeID | AttrID](s []T, v T) bool {
	for len(s) > probeLinear {
		h := len(s) / 2
		if m := s[h]; m < v {
			s = s[h+1:]
		} else if m > v {
			s = s[:h]
		} else {
			return true
		}
	}
	for _, w := range s {
		if w == v {
			return true
		}
	}
	return false
}

// searchID returns the insertion index of v in sorted list s and
// whether v is already present.
func searchID[T NodeID | AttrID](s []T, v T) (int, bool) {
	lo, hi := 0, len(s)
	for lo < hi {
		h := (lo + hi) / 2
		if s[h] < v {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo, lo < len(s) && s[lo] == v
}

// NumSocial returns |Vs|, the number of social nodes.
func (g *SAN) NumSocial() int { return len(g.out) }

// NumAttrs returns |Va|, the number of attribute nodes.
func (g *SAN) NumAttrs() int { return len(g.members) }

// NumSocialEdges returns |Es|, the number of directed social links.
func (g *SAN) NumSocialEdges() int { return g.socialEdgeCount }

// NumAttrEdges returns |Ea|, the number of attribute links.
func (g *SAN) NumAttrEdges() int { return g.attrEdgeCount }

// AddSocialNode appends a new social node and returns its ID.
func (g *SAN) AddSocialNode() NodeID {
	id := NodeID(len(g.out))
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.attr = append(g.attr, nil)
	g.outSorted = append(g.outSorted, nil)
	g.attrSorted = append(g.attrSorted, nil)
	return id
}

// AddSocialNodes appends n social nodes and returns the ID of the first.
func (g *SAN) AddSocialNodes(n int) NodeID {
	first := NodeID(len(g.out))
	for i := 0; i < n; i++ {
		g.AddSocialNode()
	}
	return first
}

// AddAttrNode appends a new attribute node with the given name and
// type and returns its ID.  If an attribute with the same name already
// exists, its existing ID is returned and the type is left unchanged.
func (g *SAN) AddAttrNode(name string, t AttrType) AttrID {
	if id, ok := g.attrIndex[name]; ok {
		return id
	}
	id := AttrID(len(g.members))
	g.members = append(g.members, nil)
	g.attrType = append(g.attrType, t)
	g.attrName = append(g.attrName, name)
	g.attrMaxIn = append(g.attrMaxIn, 0)
	g.attrIndex[name] = id
	return id
}

// AttrByName returns the ID of the named attribute node, if present.
func (g *SAN) AttrByName(name string) (AttrID, bool) {
	id, ok := g.attrIndex[name]
	return id, ok
}

// AttrName returns the name of attribute node a.
func (g *SAN) AttrName(a AttrID) string { return g.attrName[a] }

// AttrTypeOf returns the type of attribute node a.
func (g *SAN) AttrTypeOf(a AttrID) AttrType { return g.attrType[a] }

// AddSocialEdge inserts the directed social link u -> v.  It reports
// whether the edge was newly added (false for duplicates and self loops).
func (g *SAN) AddSocialEdge(u, v NodeID) bool {
	if u == v {
		return false
	}
	os := g.outSorted[u]
	i, dup := searchID(os, v)
	if dup {
		return false
	}
	if os == nil {
		os = g.nodeArena.window(adjSmallCap)
	}
	g.outSorted[u] = slices.Insert(os, i, v)
	g.out[u] = g.nodeArena.grow(g.out[u], v)
	g.in[v] = g.nodeArena.grow(g.in[v], u)
	g.socialEdgeCount++
	if containsID(g.outSorted[v], u) {
		g.mutual += 2
	}
	if attrs := g.attr[v]; len(attrs) > 0 {
		d := int32(len(g.in[v]))
		for _, a := range attrs {
			if d > g.attrMaxIn[a] {
				g.attrMaxIn[a] = d
			}
		}
	}
	return true
}

// HasSocialEdge reports whether the directed social link u -> v exists.
func (g *SAN) HasSocialEdge(u, v NodeID) bool {
	if u < 0 || int(u) >= len(g.outSorted) {
		return false
	}
	return containsID(g.outSorted[u], v)
}

// AddAttrEdge inserts the undirected attribute link between social node
// u and attribute node a.  It reports whether the link was newly added.
func (g *SAN) AddAttrEdge(u NodeID, a AttrID) bool {
	as := g.attrSorted[u]
	i, dup := searchID(as, a)
	if dup {
		return false
	}
	if as == nil {
		as = g.attrArena.window(adjSmallCap)
	}
	g.attrSorted[u] = slices.Insert(as, i, a)
	g.attr[u] = g.attrArena.grow(g.attr[u], a)
	g.members[a] = g.nodeArena.grow(g.members[a], u)
	g.attrEdgeCount++
	if d := int32(len(g.in[u])); d > g.attrMaxIn[a] {
		g.attrMaxIn[a] = d
	}
	return true
}

// HasAttrEdge reports whether social node u declares attribute a.
func (g *SAN) HasAttrEdge(u NodeID, a AttrID) bool {
	if u < 0 || int(u) >= len(g.attrSorted) {
		return false
	}
	return containsID(g.attrSorted[u], a)
}

// Out returns the social out-neighbors of u in insertion order.  The
// returned slice is owned by the SAN and must not be modified.
func (g *SAN) Out(u NodeID) []NodeID { return g.out[u] }

// OutSorted returns the social out-neighbors of u in ascending order.
// The returned slice is owned by the SAN and must not be modified; it
// is maintained incrementally, so serialization layers can consume it
// without re-sorting.
func (g *SAN) OutSorted(u NodeID) []NodeID { return g.outSorted[u] }

// In returns the social in-neighbors of u.  The returned slice is owned
// by the SAN and must not be modified.
func (g *SAN) In(u NodeID) []NodeID { return g.in[u] }

// Attrs returns the attribute neighbors Γa(u) of social node u in
// insertion order.
func (g *SAN) Attrs(u NodeID) []AttrID { return g.attr[u] }

// AttrsSorted returns Γa(u) in ascending order.  The returned slice is
// owned by the SAN and must not be modified.
func (g *SAN) AttrsSorted(u NodeID) []AttrID { return g.attrSorted[u] }

// Members returns the social neighbors Γs(a) of attribute node a,
// i.e. the users declaring attribute a.
func (g *SAN) Members(a AttrID) []NodeID { return g.members[a] }

// OutDegree returns |Γs,out(u)|.
func (g *SAN) OutDegree(u NodeID) int { return len(g.out[u]) }

// InDegree returns |Γs,in(u)|.
func (g *SAN) InDegree(u NodeID) int { return len(g.in[u]) }

// AttrDegree returns |Γa(u)|, the number of attributes social node u declares.
func (g *SAN) AttrDegree(u NodeID) int { return len(g.attr[u]) }

// SocialDegreeOfAttr returns |Γs(a)|, the number of users declaring a.
func (g *SAN) SocialDegreeOfAttr(a AttrID) int { return len(g.members[a]) }

// MaxMemberInDegree returns the maximum social in-degree over the
// members of attribute a (0 for an empty attribute).  It is maintained
// incrementally, so samplers can use it as a rejection envelope in O(1)
// instead of scanning the member list.
func (g *SAN) MaxMemberInDegree(a AttrID) int { return int(g.attrMaxIn[a]) }

// SocialNeighbors returns Γs(u): the set of social nodes adjacent to u
// through a social link in either direction, deduplicated.  The result
// is freshly allocated; hot paths should use AppendSocialNeighbors with
// a reusable buffer.  Cost is O(deg(u)).
func (g *SAN) SocialNeighbors(u NodeID) []NodeID {
	return g.AppendSocialNeighbors(make([]NodeID, 0, len(g.out[u])+len(g.in[u])), u)
}

// AppendSocialNeighbors appends Γs(u) to dst and returns the extended
// slice, preserving the order SocialNeighbors produces (out-neighbors
// first, then in-only neighbors).  Passing dst[:0] of a per-simulation
// scratch buffer makes repeated neighborhood scans allocation-free.
func (g *SAN) AppendSocialNeighbors(dst []NodeID, u NodeID) []NodeID {
	outs, ins := g.out[u], g.in[u]
	dst = append(dst, outs...)
	sorted := g.outSorted[u]
	for _, v := range ins {
		if !containsID(sorted, v) {
			dst = append(dst, v)
		}
	}
	return dst
}

// SocialNeighborCount returns |Γs(u)| without allocating.
func (g *SAN) SocialNeighborCount(u NodeID) int {
	n := len(g.out[u])
	sorted := g.outSorted[u]
	for _, v := range g.in[u] {
		if !containsID(sorted, v) {
			n++
		}
	}
	return n
}

// Mutual returns the number of ordered social edges whose reverse edge
// also exists.  Reciprocity is Mutual/NumSocialEdges.
func (g *SAN) Mutual() int { return g.mutual }

// Reciprocity returns the fraction of social links that are mutual, the
// metric of §3.1.  It returns 0 for an edgeless network.
func (g *SAN) Reciprocity() float64 {
	if g.socialEdgeCount == 0 {
		return 0
	}
	return float64(g.mutual) / float64(g.socialEdgeCount)
}

// SocialDensity returns |Es|/|Vs| (§3.2), or 0 for an empty network.
func (g *SAN) SocialDensity() float64 {
	if len(g.out) == 0 {
		return 0
	}
	return float64(g.socialEdgeCount) / float64(len(g.out))
}

// AttrDensity returns |Ea|/|Va| (§4.1), or 0 when there are no
// attribute nodes.
func (g *SAN) AttrDensity() float64 {
	if len(g.members) == 0 {
		return 0
	}
	return float64(g.attrEdgeCount) / float64(len(g.members))
}

// CommonAttrs returns a(u,v): the number of attributes shared by social
// nodes u and v.  Cost is O(min attribute degree).
func (g *SAN) CommonAttrs(u, v NodeID) int {
	au, av := g.attr[u], g.attr[v]
	if len(au) == 0 || len(av) == 0 {
		return 0
	}
	if len(au) > len(av) {
		au, av = av, au
		u, v = v, u
	}
	sorted := g.attrSorted[v]
	n := 0
	for _, a := range au {
		if containsID(sorted, a) {
			n++
		}
	}
	return n
}

// Marker is a reusable stamp set over social node IDs.  Reset empties
// it in O(1) by advancing an epoch, so a kernel that marks one node set
// per call pays for the set, not for clearing or allocating an |Vs|
// array.  The zero value is ready to use; a Marker is not safe for
// concurrent use.
type Marker struct {
	stamp []uint32
	epoch uint32
}

// Reset empties the set and sizes it for node IDs below n.
func (m *Marker) Reset(n int) {
	if len(m.stamp) < n {
		m.stamp = append(m.stamp, make([]uint32, n-len(m.stamp))...)
	}
	m.epoch++
	if m.epoch == 0 { // wrapped: old stamps would alias the new epoch
		clear(m.stamp)
		m.epoch = 1
	}
}

// Mark adds v to the set.
func (m *Marker) Mark(v NodeID) { m.stamp[v] = m.epoch }

// Unmark removes v from the set.
func (m *Marker) Unmark(v NodeID) { m.stamp[v] = 0 }

// Marked reports whether v is in the set.
func (m *Marker) Marked(v NodeID) bool { return m.stamp[v] == m.epoch }

// CommonSocialNeighbors returns the number of social nodes adjacent
// (in either direction) to both u and v.  It marks Γs(u) in m, then
// walks Γs(v) and unmarks each hit, so a node that is both an out- and
// an in-neighbor of v counts once.  Cost is O(deg(u)+deg(v)) with no
// allocation once m has grown to |Vs|.
func (g *SAN) CommonSocialNeighbors(u, v NodeID, m *Marker) int {
	m.Reset(len(g.out))
	for _, w := range g.out[u] {
		m.Mark(w)
	}
	for _, w := range g.in[u] {
		m.Mark(w)
	}
	n := 0
	for _, adj := range [2][]NodeID{g.out[v], g.in[v]} {
		for _, w := range adj {
			if m.Marked(w) {
				n++
				m.Unmark(w)
			}
		}
	}
	return n
}

// ForEachSocialEdge calls fn for every directed social edge (u, v).
// Iteration order is unspecified but deterministic for a fixed build
// history (it follows adjacency insertion order).
func (g *SAN) ForEachSocialEdge(fn func(u, v NodeID)) {
	for u := range g.out {
		for _, v := range g.out[u] {
			fn(NodeID(u), v)
		}
	}
}

// Clone returns a deep copy of the SAN.  Snapshots taken during an
// evolving simulation use Clone so later mutation does not alias.  The
// copy is bulk: every adjacency dimension lands in one flat backing
// allocation instead of one allocation per node.
func (g *SAN) Clone() *SAN {
	c := &SAN{
		out:             cloneAdj(g.out),
		in:              cloneAdj(g.in),
		attr:            cloneAdj(g.attr),
		outSorted:       cloneAdj(g.outSorted),
		attrSorted:      cloneAdj(g.attrSorted),
		members:         cloneAdj(g.members),
		attrType:        append([]AttrType(nil), g.attrType...),
		attrName:        append([]string(nil), g.attrName...),
		attrIndex:       maps.Clone(g.attrIndex),
		attrMaxIn:       append([]int32(nil), g.attrMaxIn...),
		socialEdgeCount: g.socialEdgeCount,
		attrEdgeCount:   g.attrEdgeCount,
		mutual:          g.mutual,
	}
	if c.attrIndex == nil {
		c.attrIndex = make(map[string]AttrID)
	}
	return c
}

// CloneView returns a deep copy of the social graph and the full
// attribute-node catalogue, keeping attribute links only for social
// nodes whose declared flag is set (nodes at or beyond len(declared)
// drop theirs).  It is the bulk primitive behind observed-network
// views (CrawlView): every dimension is a wholesale filtered copy, so
// the view costs O(V+E) flat allocations instead of per-link inserts.
//
// Out-adjacency keeps insertion order; in-adjacency is normalized to
// ascending-source order and member lists keep the source's order —
// exactly the lists an edge-by-edge rebuild in ForEachSocialEdge /
// ascending-node order produces — so the copy is indistinguishable
// from the historical rebuild, list for list.
func (g *SAN) CloneView(declared []bool) *SAN {
	c := &SAN{
		out:             cloneAdj(g.out),
		in:              rebuildIn(g.out, g.in, g.socialEdgeCount),
		outSorted:       cloneAdj(g.outSorted),
		attr:            make([][]AttrID, len(g.attr)),
		attrSorted:      make([][]AttrID, len(g.attrSorted)),
		members:         make([][]NodeID, len(g.members)),
		attrType:        append([]AttrType(nil), g.attrType...),
		attrName:        append([]string(nil), g.attrName...),
		attrIndex:       maps.Clone(g.attrIndex),
		attrMaxIn:       make([]int32, len(g.attrMaxIn)),
		socialEdgeCount: g.socialEdgeCount,
		mutual:          g.mutual,
	}
	if c.attrIndex == nil {
		c.attrIndex = make(map[string]AttrID)
	}
	keep := func(u NodeID) bool { return int(u) < len(declared) && declared[u] }
	total := 0
	for u := range g.attr {
		if keep(NodeID(u)) {
			total += len(g.attr[u])
		}
	}
	flatAttr := make([]AttrID, 0, 2*total)
	for u := range g.attr {
		if !keep(NodeID(u)) || len(g.attr[u]) == 0 {
			continue
		}
		off := len(flatAttr)
		flatAttr = append(flatAttr, g.attr[u]...)
		c.attr[u] = flatAttr[off:len(flatAttr):len(flatAttr)]
		off = len(flatAttr)
		flatAttr = append(flatAttr, g.attrSorted[u]...)
		c.attrSorted[u] = flatAttr[off:len(flatAttr):len(flatAttr)]
	}
	flatMembers := make([]NodeID, 0, total)
	for a := range g.members {
		off := len(flatMembers)
		maxIn := int32(0)
		for _, u := range g.members[a] {
			if !keep(u) {
				continue
			}
			flatMembers = append(flatMembers, u)
			if d := int32(len(g.in[u])); d > maxIn {
				maxIn = d
			}
		}
		if len(flatMembers) > off {
			c.members[a] = flatMembers[off:len(flatMembers):len(flatMembers)]
		}
		c.attrMaxIn[a] = maxIn
	}
	c.attrEdgeCount = total
	return c
}

// rebuildIn builds in-adjacency lists in ascending-source order from
// the out-adjacency, in one flat backing allocation with no sorting:
// iterating sources in ascending order and appending to per-target
// cursors yields each target's sources already ascending.
func rebuildIn(out, in [][]NodeID, edges int) [][]NodeID {
	n := len(in)
	flat := make([]NodeID, edges)
	pos := make([]int, n)
	off := 0
	for v := 0; v < n; v++ {
		pos[v] = off
		off += len(in[v])
	}
	c := make([][]NodeID, n)
	for v := 0; v < n; v++ {
		if d := len(in[v]); d > 0 {
			start := pos[v]
			c[v] = flat[start : start+d : start+d]
		}
	}
	for u := range out {
		for _, v := range out[u] {
			flat[pos[v]] = NodeID(u)
			pos[v]++
		}
	}
	return c
}

// cloneAdj deep-copies a nested adjacency structure into one flat
// backing array.  Sub-slices are capacity-clamped, so appending to a
// cloned list reallocates it instead of clobbering its neighbor.
func cloneAdj[T any](a [][]T) [][]T {
	total := 0
	for _, s := range a {
		total += len(s)
	}
	c := make([][]T, len(a))
	flat := make([]T, 0, total)
	for i, s := range a {
		if len(s) == 0 {
			continue
		}
		off := len(flat)
		flat = append(flat, s...)
		c[i] = flat[off:len(flat):len(flat)]
	}
	return c
}

// Stats is a compact summary of SAN size used by snapshot time series
// (Figures 2 and 3).
type Stats struct {
	SocialNodes int
	AttrNodes   int
	SocialLinks int
	AttrLinks   int
}

// Stats returns the node and link counts of the SAN.
func (g *SAN) Stats() Stats {
	return Stats{
		SocialNodes: g.NumSocial(),
		AttrNodes:   g.NumAttrs(),
		SocialLinks: g.NumSocialEdges(),
		AttrLinks:   g.NumAttrEdges(),
	}
}

// Validate checks internal invariants: the sorted membership indexes
// agree with the insertion-order adjacency, degree sums match edge
// counts, the mutual-edge counter is consistent, and the per-attribute
// in-degree envelopes are exact.  It is used by tests and returns the
// first violation.
func (g *SAN) Validate() error {
	if len(g.out) != len(g.in) || len(g.out) != len(g.attr) ||
		len(g.out) != len(g.outSorted) || len(g.out) != len(g.attrSorted) {
		return fmt.Errorf("social slice length mismatch: out=%d in=%d attr=%d outSorted=%d attrSorted=%d",
			len(g.out), len(g.in), len(g.attr), len(g.outSorted), len(g.attrSorted))
	}
	outSum, inSum := 0, 0
	for u := range g.out {
		outSum += len(g.out[u])
		inSum += len(g.in[u])
		if !slices.IsSorted(g.outSorted[u]) {
			return fmt.Errorf("outSorted[%d] is not sorted", u)
		}
		if !sameMembers(g.out[u], g.outSorted[u]) {
			return fmt.Errorf("outSorted[%d] disagrees with out[%d]", u, u)
		}
		for _, v := range g.out[u] {
			if !g.HasSocialEdge(NodeID(u), v) {
				return fmt.Errorf("adjacency edge (%d,%d) missing from membership index", u, v)
			}
		}
	}
	if outSum != g.socialEdgeCount || inSum != g.socialEdgeCount {
		return fmt.Errorf("degree sums (out=%d, in=%d) disagree with |Es|=%d", outSum, inSum, g.socialEdgeCount)
	}
	mutual := 0
	for u := range g.out {
		for _, v := range g.out[u] {
			if g.HasSocialEdge(v, NodeID(u)) {
				mutual++
			}
		}
	}
	if mutual != g.mutual {
		return fmt.Errorf("mutual counter %d, recomputed %d", g.mutual, mutual)
	}
	attrSum, memberSum := 0, 0
	for u := range g.attr {
		attrSum += len(g.attr[u])
		if !slices.IsSorted(g.attrSorted[u]) {
			return fmt.Errorf("attrSorted[%d] is not sorted", u)
		}
		if !sameMembers(g.attr[u], g.attrSorted[u]) {
			return fmt.Errorf("attrSorted[%d] disagrees with attr[%d]", u, u)
		}
		for _, a := range g.attr[u] {
			if !g.HasAttrEdge(NodeID(u), a) {
				return fmt.Errorf("attr adjacency (%d,%d) missing from membership index", u, a)
			}
		}
	}
	for a := range g.members {
		memberSum += len(g.members[a])
		maxIn := 0
		for _, u := range g.members[a] {
			if d := len(g.in[u]); d > maxIn {
				maxIn = d
			}
		}
		if maxIn != int(g.attrMaxIn[a]) {
			return fmt.Errorf("attrMaxIn[%d] = %d, recomputed %d", a, g.attrMaxIn[a], maxIn)
		}
	}
	if attrSum != g.attrEdgeCount || memberSum != g.attrEdgeCount {
		return fmt.Errorf("attr degree sums (%d, %d) disagree with |Ea|=%d", attrSum, memberSum, g.attrEdgeCount)
	}
	return nil
}

// sameMembers reports whether sorted holds exactly the elements of s.
func sameMembers[T NodeID | AttrID](s, sorted []T) bool {
	if len(s) != len(sorted) {
		return false
	}
	tmp := append([]T(nil), s...)
	slices.Sort(tmp)
	return slices.Equal(tmp, sorted)
}

// SortAdjacency sorts every adjacency list in ascending node order.
// It makes iteration order canonical (useful for serialization and for
// reproducible tests); metric code does not require it.
func (g *SAN) SortAdjacency() {
	for u := range g.out {
		sortNodes(g.out[u])
		sortNodes(g.in[u])
		slices.Sort(g.attr[u])
	}
	for a := range g.members {
		sortNodes(g.members[a])
	}
}

func sortNodes(s []NodeID) {
	slices.Sort(s)
}
