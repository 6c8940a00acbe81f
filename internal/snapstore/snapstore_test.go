package snapstore

import (
	"fmt"
	"math/rand/v2"
	"reflect"

	"repro/internal/san"
)

// RandomSAN builds an arbitrary valid SAN from an rng: the property
// tests' input generator.  It is exported (from a test file only) so
// the external snapstore_test package can reuse it.
func RandomSAN(rng *rand.Rand) *san.SAN {
	n := rng.IntN(60)
	g := san.New(n, 8, 4*n)
	g.AddSocialNodes(n)
	numAttrs := rng.IntN(12)
	for a := 0; a < numAttrs; a++ {
		t := san.AttrType(rng.IntN(5))
		g.AddAttrNode(fmt.Sprintf("attr-%c-%d", 'A'+t, a), t)
	}
	if n > 1 {
		for i := 0; i < rng.IntN(6*n); i++ {
			g.AddSocialEdge(san.NodeID(rng.IntN(n)), san.NodeID(rng.IntN(n)))
		}
	}
	if n > 0 && numAttrs > 0 {
		for i := 0; i < rng.IntN(3*n); i++ {
			g.AddAttrEdge(san.NodeID(rng.IntN(n)), san.AttrID(rng.IntN(numAttrs)))
		}
	}
	return g
}

// SameSAN reports whether a and b are equal up to adjacency-list
// ordering: same nodes, same attribute catalog, same edge sets.
func SameSAN(a, b *san.SAN) error {
	if a.NumSocial() != b.NumSocial() || a.NumAttrs() != b.NumAttrs() ||
		a.NumSocialEdges() != b.NumSocialEdges() || a.NumAttrEdges() != b.NumAttrEdges() {
		return fmt.Errorf("size mismatch: %+v vs %+v", a.Stats(), b.Stats())
	}
	if a.Mutual() != b.Mutual() {
		return fmt.Errorf("mutual-edge counters differ: %d vs %d", a.Mutual(), b.Mutual())
	}
	for i := 0; i < a.NumAttrs(); i++ {
		id := san.AttrID(i)
		if a.AttrName(id) != b.AttrName(id) || a.AttrTypeOf(id) != b.AttrTypeOf(id) {
			return fmt.Errorf("attr %d differs: %q/%v vs %q/%v", i,
				a.AttrName(id), a.AttrTypeOf(id), b.AttrName(id), b.AttrTypeOf(id))
		}
	}
	ac, bc := a.Clone(), b.Clone()
	ac.SortAdjacency()
	bc.SortAdjacency()
	for u := 0; u < ac.NumSocial(); u++ {
		id := san.NodeID(u)
		if !equalIDs(ac.Out(id), bc.Out(id)) {
			return fmt.Errorf("out-adjacency of %d differs: %v vs %v", u, ac.Out(id), bc.Out(id))
		}
		if !equalIDs(ac.In(id), bc.In(id)) {
			return fmt.Errorf("in-adjacency of %d differs: %v vs %v", u, ac.In(id), bc.In(id))
		}
		if !equalIDs(ac.Attrs(id), bc.Attrs(id)) {
			return fmt.Errorf("attr list of %d differs: %v vs %v", u, ac.Attrs(id), bc.Attrs(id))
		}
	}
	for i := 0; i < ac.NumAttrs(); i++ {
		if !equalIDs(ac.Members(san.AttrID(i)), bc.Members(san.AttrID(i))) {
			return fmt.Errorf("members of attr %d differ", i)
		}
	}
	return nil
}

func equalIDs[T id](a, b []T) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}
