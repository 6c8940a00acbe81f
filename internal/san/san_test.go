package san

import (
	"bytes"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// paperSAN builds the six-social-node, four-attribute example of
// Figure 1 in the paper, as closely as the figure's text allows.
func paperSAN() *SAN {
	g := New(6, 4, 8)
	g.AddSocialNodes(6)
	sf := g.AddAttrNode("San Francisco", City)
	ucb := g.AddAttrNode("UC Berkeley", School)
	cs := g.AddAttrNode("Computer Science", Major)
	goog := g.AddAttrNode("Google Inc.", Employer)
	g.AddAttrEdge(0, sf)
	g.AddAttrEdge(1, sf)
	g.AddAttrEdge(1, ucb)
	g.AddAttrEdge(2, ucb)
	g.AddAttrEdge(3, cs)
	g.AddAttrEdge(4, cs)
	g.AddAttrEdge(4, goog)
	g.AddAttrEdge(5, goog)
	g.AddSocialEdge(0, 1)
	g.AddSocialEdge(1, 2)
	g.AddSocialEdge(2, 3)
	g.AddSocialEdge(3, 4)
	g.AddSocialEdge(4, 5)
	g.AddSocialEdge(2, 4)
	return g
}

func TestCounts(t *testing.T) {
	g := paperSAN()
	if got := g.NumSocial(); got != 6 {
		t.Errorf("NumSocial = %d, want 6", got)
	}
	if got := g.NumAttrs(); got != 4 {
		t.Errorf("NumAttrs = %d, want 4", got)
	}
	if got := g.NumSocialEdges(); got != 6 {
		t.Errorf("NumSocialEdges = %d, want 6", got)
	}
	if got := g.NumAttrEdges(); got != 8 {
		t.Errorf("NumAttrEdges = %d, want 8", got)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateAndSelfEdges(t *testing.T) {
	g := New(0, 0, 0)
	g.AddSocialNodes(2)
	if !g.AddSocialEdge(0, 1) {
		t.Error("first AddSocialEdge returned false")
	}
	if g.AddSocialEdge(0, 1) {
		t.Error("duplicate AddSocialEdge returned true")
	}
	if g.AddSocialEdge(0, 0) {
		t.Error("self loop AddSocialEdge returned true")
	}
	a := g.AddAttrNode("x", Generic)
	if !g.AddAttrEdge(0, a) {
		t.Error("first AddAttrEdge returned false")
	}
	if g.AddAttrEdge(0, a) {
		t.Error("duplicate AddAttrEdge returned true")
	}
	if g.NumSocialEdges() != 1 || g.NumAttrEdges() != 1 {
		t.Errorf("edge counts = (%d, %d), want (1, 1)", g.NumSocialEdges(), g.NumAttrEdges())
	}
}

func TestReciprocity(t *testing.T) {
	g := New(0, 0, 0)
	g.AddSocialNodes(3)
	if got := g.Reciprocity(); got != 0 {
		t.Errorf("empty reciprocity = %v, want 0", got)
	}
	g.AddSocialEdge(0, 1)
	g.AddSocialEdge(1, 0)
	g.AddSocialEdge(1, 2)
	// Two of the three edges are part of a mutual pair.
	if got, want := g.Reciprocity(), 2.0/3.0; got != want {
		t.Errorf("Reciprocity = %v, want %v", got, want)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDensities(t *testing.T) {
	g := paperSAN()
	if got, want := g.SocialDensity(), 1.0; got != want {
		t.Errorf("SocialDensity = %v, want %v", got, want)
	}
	if got, want := g.AttrDensity(), 2.0; got != want {
		t.Errorf("AttrDensity = %v, want %v", got, want)
	}
}

func TestCommonAttrs(t *testing.T) {
	g := paperSAN()
	cases := []struct {
		u, v NodeID
		want int
	}{
		{0, 1, 1}, // share San Francisco
		{1, 2, 1}, // share UC Berkeley
		{3, 4, 1}, // share Computer Science
		{4, 5, 1}, // share Google Inc.
		{0, 2, 0},
		{0, 5, 0},
		{1, 1, 2}, // self comparison counts own attributes
	}
	for _, c := range cases {
		if got := g.CommonAttrs(c.u, c.v); got != c.want {
			t.Errorf("CommonAttrs(%d,%d) = %d, want %d", c.u, c.v, got, c.want)
		}
		if got := g.CommonAttrs(c.v, c.u); got != c.want {
			t.Errorf("CommonAttrs(%d,%d) = %d, want %d (symmetry)", c.v, c.u, got, c.want)
		}
	}
}

// commonSocialNeighborsMap is the reference common-neighbor count: a
// map over the smaller neighborhood, probed with the other one.
// CommonSocialNeighbors must agree with it on every pair.
func commonSocialNeighborsMap(g *SAN, u, v NodeID) int {
	du := len(g.out[u]) + len(g.in[u])
	dv := len(g.out[v]) + len(g.in[v])
	if du > dv {
		u, v = v, u
	}
	seen := make(map[NodeID]bool, du)
	for _, w := range g.SocialNeighbors(u) {
		if w != v {
			seen[w] = true
		}
	}
	n := 0
	for _, w := range g.SocialNeighbors(v) {
		if seen[w] {
			n++
			seen[w] = false // count each common neighbor once
		}
	}
	return n
}

func TestCommonSocialNeighbors(t *testing.T) {
	g := New(0, 0, 0)
	g.AddSocialNodes(5)
	var m Marker
	// 0 -> 2, 1 -> 2, 2 -> 3, 3 -> 0, 3 -> 1: neighbors(0) = {2, 3},
	// neighbors(1) = {2, 3}; common = {2, 3} = 2.
	g.AddSocialEdge(0, 2)
	g.AddSocialEdge(1, 2)
	g.AddSocialEdge(2, 3)
	g.AddSocialEdge(3, 0)
	g.AddSocialEdge(3, 1)
	if got := g.CommonSocialNeighbors(0, 1, &m); got != 2 {
		t.Errorf("CommonSocialNeighbors(0,1) = %d, want 2", got)
	}
	// A mutual pair 0<->2 must still count 2 once as a neighbor of 0,
	// and a mutual pair 1<->3 must count 3 once as a neighbor of 1.
	g.AddSocialEdge(2, 0)
	g.AddSocialEdge(1, 3)
	if got := g.CommonSocialNeighbors(0, 1, &m); got != 2 {
		t.Errorf("after mutual edges, CommonSocialNeighbors(0,1) = %d, want 2", got)
	}
	for u := NodeID(0); u < 5; u++ {
		for v := NodeID(0); v < 5; v++ {
			if got, want := g.CommonSocialNeighbors(u, v, &m), commonSocialNeighborsMap(g, u, v); got != want {
				t.Errorf("CommonSocialNeighbors(%d,%d) = %d, oracle %d", u, v, got, want)
			}
		}
	}
	// An epoch wrap must clear stale stamps, not alias them.  Node 4 is
	// isolated, so the first count leaves Γs(0) = {2, 3} stamped with
	// epoch 1, the epoch the wrap restarts at.
	var w Marker
	g.CommonSocialNeighbors(0, 4, &w)
	w.epoch = ^uint32(0)
	if got := g.CommonSocialNeighbors(4, 1, &w); got != 0 {
		t.Errorf("across an epoch wrap, CommonSocialNeighbors(4,1) = %d, want 0", got)
	}
}

func TestSocialNeighborsDedup(t *testing.T) {
	g := New(0, 0, 0)
	g.AddSocialNodes(3)
	g.AddSocialEdge(0, 1)
	g.AddSocialEdge(1, 0)
	g.AddSocialEdge(2, 0)
	nbrs := g.SocialNeighbors(0)
	if len(nbrs) != 2 {
		t.Fatalf("SocialNeighbors(0) = %v, want 2 distinct nodes", nbrs)
	}
	if got := g.SocialNeighborCount(0); got != 2 {
		t.Errorf("SocialNeighborCount(0) = %d, want 2", got)
	}
}

func TestBFSDirected(t *testing.T) {
	g := paperSAN()
	dist := g.BFSDirected(0)
	want := []int32{0, 1, 2, 3, 3, 4}
	for i, d := range want {
		if dist[i] != d {
			t.Errorf("dist[%d] = %d, want %d", i, dist[i], d)
		}
	}
	// Node 5 has no outgoing edges: everything else unreachable.
	dist5 := g.BFSDirected(5)
	for v, d := range dist5 {
		if v == 5 && d != 0 {
			t.Errorf("dist5[5] = %d, want 0", d)
		}
		if v != 5 && d != -1 {
			t.Errorf("dist5[%d] = %d, want -1", v, d)
		}
	}
}

func TestMultiSourceBFS(t *testing.T) {
	g := paperSAN()
	dist := g.MultiSourceBFSDirected([]NodeID{0, 4})
	want := []int32{0, 1, 2, 3, 0, 1}
	for i, d := range want {
		if dist[i] != d {
			t.Errorf("dist[%d] = %d, want %d", i, dist[i], d)
		}
	}
}

func TestWCC(t *testing.T) {
	g := New(0, 0, 0)
	g.AddSocialNodes(6)
	g.AddSocialEdge(0, 1)
	g.AddSocialEdge(2, 1)
	g.AddSocialEdge(3, 4)
	labels, sizes := g.WeaklyConnectedComponents()
	if len(sizes) != 3 {
		t.Fatalf("got %d components, want 3 (sizes %v)", len(sizes), sizes)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Errorf("nodes 0,1,2 should share a component: %v", labels)
	}
	if labels[3] != labels[4] || labels[3] == labels[0] {
		t.Errorf("nodes 3,4 should share a separate component: %v", labels)
	}
	if g.LargestWCCSize() != 3 {
		t.Errorf("LargestWCCSize = %d, want 3", g.LargestWCCSize())
	}
}

func TestCloneIndependence(t *testing.T) {
	g := paperSAN()
	c := g.Clone()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	g.AddSocialEdge(5, 0)
	g.AddAttrEdge(0, 1)
	if c.NumSocialEdges() != 6 {
		t.Errorf("clone social edges changed: %d", c.NumSocialEdges())
	}
	if c.NumAttrEdges() != 8 {
		t.Errorf("clone attr edges changed: %d", c.NumAttrEdges())
	}
	if c.HasSocialEdge(5, 0) {
		t.Error("clone aliases original edge set")
	}
}

func TestAttrNodeDedupByName(t *testing.T) {
	g := New(0, 0, 0)
	a1 := g.AddAttrNode("Google", Employer)
	a2 := g.AddAttrNode("Google", Employer)
	if a1 != a2 {
		t.Errorf("same-name attribute created twice: %d, %d", a1, a2)
	}
	if g.NumAttrs() != 1 {
		t.Errorf("NumAttrs = %d, want 1", g.NumAttrs())
	}
	if id, ok := g.AttrByName("Google"); !ok || id != a1 {
		t.Errorf("AttrByName = (%d, %v), want (%d, true)", id, ok, a1)
	}
}

func TestSubsample(t *testing.T) {
	g := paperSAN()
	rng := rand.New(rand.NewPCG(1, 2))
	all := g.Subsample(1.0, rng)
	if all.NumAttrEdges() != g.NumAttrEdges() {
		t.Errorf("keep=1 dropped attribute links: %d != %d", all.NumAttrEdges(), g.NumAttrEdges())
	}
	none := g.Subsample(0.0, rng)
	if none.NumAttrEdges() != 0 {
		t.Errorf("keep=0 retained %d attribute links", none.NumAttrEdges())
	}
	if none.NumSocialEdges() != g.NumSocialEdges() {
		t.Errorf("subsample must preserve social edges: %d != %d", none.NumSocialEdges(), g.NumSocialEdges())
	}
	if none.NumAttrs() != g.NumAttrs() {
		t.Errorf("subsample must preserve attribute nodes: %d != %d", none.NumAttrs(), g.NumAttrs())
	}
}

func TestRoundTripSerialization(t *testing.T) {
	g := paperSAN()
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if got.NumSocial() != g.NumSocial() || got.NumAttrs() != g.NumAttrs() ||
		got.NumSocialEdges() != g.NumSocialEdges() || got.NumAttrEdges() != g.NumAttrEdges() {
		t.Fatalf("round trip size mismatch: %+v vs %+v", got.Stats(), g.Stats())
	}
	g.ForEachSocialEdge(func(u, v NodeID) {
		if !got.HasSocialEdge(u, v) {
			t.Errorf("round trip lost edge (%d, %d)", u, v)
		}
	})
	for a := 0; a < g.NumAttrs(); a++ {
		if got.AttrName(AttrID(a)) != g.AttrName(AttrID(a)) {
			t.Errorf("attr %d name mismatch: %q vs %q", a, got.AttrName(AttrID(a)), g.AttrName(AttrID(a)))
		}
		if got.AttrTypeOf(AttrID(a)) != g.AttrTypeOf(AttrID(a)) {
			t.Errorf("attr %d type mismatch", a)
		}
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"san 2\nsocial 1\n",
		"san 1\nsocial 2\ne 0 5\n",
		"san 1\nsocial 2\nq 0 1\n",
		"san 1\nsocial 2\na 0 0\n", // attribute 0 not declared
		"san 1\nsocial 1\nattr 3 0 X\n",
	}
	for _, s := range bad {
		if _, err := Read(bytes.NewReader([]byte(s))); err == nil {
			t.Errorf("Read(%q) succeeded, want error", s)
		}
	}
}

// TestRandomGraphInvariants is a property test: any sequence of edge
// insertions leaves the SAN internally consistent, with reciprocity in
// [0, 1] and symmetric common-neighbor counts.
func TestRandomGraphInvariants(t *testing.T) {
	check := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
		n := 2 + rng.IntN(40)
		g := New(n, 4, 0)
		g.AddSocialNodes(n)
		var attrs []AttrID
		for i := 0; i < 4; i++ {
			attrs = append(attrs, g.AddAttrNode(string(rune('A'+i)), Generic))
		}
		edges := rng.IntN(4 * n)
		for i := 0; i < edges; i++ {
			g.AddSocialEdge(NodeID(rng.IntN(n)), NodeID(rng.IntN(n)))
			if rng.IntN(3) == 0 {
				g.AddAttrEdge(NodeID(rng.IntN(n)), attrs[rng.IntN(len(attrs))])
			}
		}
		if err := g.Validate(); err != nil {
			t.Logf("validate: %v", err)
			return false
		}
		r := g.Reciprocity()
		if r < 0 || r > 1 {
			t.Logf("reciprocity out of range: %v", r)
			return false
		}
		u, v := NodeID(rng.IntN(n)), NodeID(rng.IntN(n))
		if g.CommonAttrs(u, v) != g.CommonAttrs(v, u) {
			t.Log("CommonAttrs asymmetric")
			return false
		}
		var m Marker
		if c := g.CommonSocialNeighbors(u, v, &m); c != commonSocialNeighborsMap(g, u, v) ||
			u != v && c != g.CommonSocialNeighbors(v, u, &m) {
			t.Log("CommonSocialNeighbors asymmetric or off its map oracle")
			return false
		}
		// Round trip through serialization preserves edge sets.
		var buf bytes.Buffer
		if _, err := g.WriteTo(&buf); err != nil {
			t.Logf("write: %v", err)
			return false
		}
		back, err := Read(&buf)
		if err != nil {
			t.Logf("read: %v", err)
			return false
		}
		return back.NumSocialEdges() == g.NumSocialEdges() &&
			back.NumAttrEdges() == g.NumAttrEdges() &&
			back.Mutual() == g.Mutual()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSampleDistances(t *testing.T) {
	g := paperSAN()
	rng := rand.New(rand.NewPCG(7, 7))
	ds := g.SampleDistances(20, rng)
	if len(ds) == 0 {
		t.Fatal("no distances sampled on a connected chain")
	}
	for _, d := range ds {
		if d < 1 || d > 5 {
			t.Errorf("distance %d out of range [1,5] for the 6-node chain", d)
		}
	}
}

func TestSortAdjacencyCanonical(t *testing.T) {
	g := New(0, 0, 0)
	g.AddSocialNodes(4)
	g.AddSocialEdge(0, 3)
	g.AddSocialEdge(0, 1)
	g.AddSocialEdge(0, 2)
	g.SortAdjacency()
	out := g.Out(0)
	for i := 1; i < len(out); i++ {
		if out[i-1] > out[i] {
			t.Fatalf("adjacency not sorted: %v", out)
		}
	}
}
