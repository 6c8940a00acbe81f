package snapstore

import (
	"encoding/binary"
	"fmt"

	"repro/internal/san"
)

// A delta record encodes one day of append-only evolution:
//
//	'D'
//	uvarint newSocialNodes
//	uvarint newAttrNodes, then per attribute: type byte, name len, name
//	uvarint socialGroups, then per group (ascending u):
//	    uvarint u (first raw, then difference from previous group)
//	    delta-varint sorted list of new out-neighbors of u
//	uvarint attrGroups, same layout with attribute IDs
//
// Groups cover only nodes that gained links that day, so quiet days
// cost a few bytes.

// group is one node's new links, collected before encoding.
type group[T id] struct {
	u    san.NodeID
	vals []T
}

func appendGroups[T id](buf []byte, gs []group[T]) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(gs)))
	prev := int64(0)
	for i, gr := range gs {
		if i == 0 {
			buf = binary.AppendUvarint(buf, uint64(gr.u))
		} else {
			buf = binary.AppendUvarint(buf, uint64(int64(gr.u)-prev))
		}
		prev = int64(gr.u)
		buf = appendIDList(buf, sortedCopy(gr.vals))
	}
	return buf
}

// applyGroups decodes group records, handing each (u, val) pair to add,
// which reports whether the link was structurally valid and new.
func applyGroups[T id](r *reader, numSocial, max int, what string, add func(u san.NodeID, v T) bool) error {
	n := r.count(2, what+" group")
	prev := int64(-1)
	for i := 0; i < n; i++ {
		d := r.uvarint()
		var u int64
		if i == 0 {
			u = int64(d)
		} else {
			if d == 0 {
				r.fail("duplicate %s group", what)
				return r.err
			}
			u = prev + int64(d)
		}
		if u < 0 || u >= int64(numSocial) {
			r.fail("%s group node %d out of range [0,%d)", what, u, numSocial)
			return r.err
		}
		prev = u
		vals := readIDList[T](r, max, what)
		if r.err != nil {
			return r.err
		}
		if len(vals) == 0 {
			r.fail("empty %s group for node %d", what, u)
			return r.err
		}
		for _, v := range vals {
			if !add(san.NodeID(u), v) {
				return fmt.Errorf("snapstore: invalid %s link (%d,%d)", what, u, v)
			}
		}
	}
	return r.err
}

// encodeDelta builds a delta record from the per-node link counts the
// dayEncoder tracked for the previous day.  next must be an append-only
// extension of that state; a shrinking list reports an error.  A
// non-nil declared drops the attribute links of undeclared users, as
// EncodeSnapshot does.
func encodeDelta(next *san.SAN, declared []bool, prevSocial, prevAttrs int, prevOutDeg, prevAttrDeg []int32) ([]byte, error) {
	n, na := next.NumSocial(), next.NumAttrs()
	if n < prevSocial || na < prevAttrs {
		return nil, fmt.Errorf("snapstore: timeline is not append-only (social %d→%d, attrs %d→%d)",
			prevSocial, n, prevAttrs, na)
	}
	buf := make([]byte, 0, 64)
	buf = append(buf, tagDelta)
	buf = binary.AppendUvarint(buf, uint64(n-prevSocial))
	buf = binary.AppendUvarint(buf, uint64(na-prevAttrs))
	for a := prevAttrs; a < na; a++ {
		buf = appendAttrEntry(buf, next.AttrTypeOf(san.AttrID(a)), next.AttrName(san.AttrID(a)))
	}
	socialGroups, err := newLinkGroups(n, prevSocial, prevOutDeg, func(u san.NodeID) []san.NodeID { return next.Out(u) })
	if err != nil {
		return nil, err
	}
	attrGroups, err := newLinkGroups(n, prevSocial, prevAttrDeg, func(u san.NodeID) []san.AttrID {
		if !visible(declared, int(u)) {
			return nil
		}
		return next.Attrs(u)
	})
	if err != nil {
		return nil, err
	}
	buf = appendGroups(buf, socialGroups)
	buf = appendGroups(buf, attrGroups)
	return buf, nil
}

// newLinkGroups collects, per node, the links appended since the
// previous day (adjacency lists only ever grow, so the new links are
// exactly the suffix past the previous day's degree).
func newLinkGroups[T id](n, prevSocial int, prevDeg []int32, adj func(san.NodeID) []T) ([]group[T], error) {
	var gs []group[T]
	for u := 0; u < n; u++ {
		old := 0
		if u < prevSocial {
			old = int(prevDeg[u])
		}
		list := adj(san.NodeID(u))
		if len(list) < old {
			return nil, fmt.Errorf("snapstore: timeline is not append-only (node %d adjacency shrank %d→%d)",
				u, old, len(list))
		}
		if len(list) > old {
			gs = append(gs, group[T]{u: san.NodeID(u), vals: list[old:]})
		}
	}
	return gs, nil
}

// ApplyDelta advances g in place by one delta record.
func ApplyDelta(g *san.SAN, rec []byte) error {
	return applyDeltaInto(g, rec, nil)
}

// applyDeltaInto is ApplyDelta with optional capture: when d is
// non-nil, the decoded growth (node counts, every new link) is
// recorded into it in application order, which is what a cursor walk
// hands to incremental consumers.
func applyDeltaInto(g *san.SAN, rec []byte, d *Delta) error {
	r := &reader{buf: rec}
	if tag := r.byte(); r.err == nil && tag != tagDelta {
		return fmt.Errorf("snapstore: not a delta record (tag %q)", tag)
	}
	// New nodes are not individually encoded, so the remaining-bytes
	// bound of reader.count does not apply; keep allocation linear in
	// the record size anyway (generous: real deltas spend several bytes
	// of link data per arriving node) so a corrupt count cannot force a
	// huge allocation.
	newSocial := r.uvarint()
	if maxNew := uint64(64*len(rec) + 1024); newSocial > maxNew ||
		int64(g.NumSocial())+int64(newSocial) > 1<<31 {
		return fmt.Errorf("snapstore: implausible social node growth %d", newSocial)
	}
	newAttrs := r.count(2, "attribute node")
	if r.err != nil {
		return r.err
	}
	g.AddSocialNodes(int(newSocial))
	if err := decodeAttrCatalog(r, g, newAttrs); err != nil {
		return err
	}
	addSocial, addAttr := g.AddSocialEdge, g.AddAttrEdge
	if d != nil {
		d.NewSocial, d.NewAttrs = int(newSocial), newAttrs
		addSocial = func(u, v san.NodeID) bool {
			if !g.AddSocialEdge(u, v) {
				return false
			}
			d.SocialEdges = append(d.SocialEdges, SocialEdge{U: u, V: v})
			return true
		}
		addAttr = func(u san.NodeID, a san.AttrID) bool {
			if !g.AddAttrEdge(u, a) {
				return false
			}
			d.AttrLinks = append(d.AttrLinks, AttrLink{U: u, A: a})
			return true
		}
	}
	numSocial := g.NumSocial()
	if err := applyGroups(r, numSocial, numSocial, "social", addSocial); err != nil {
		return err
	}
	if err := applyGroups(r, numSocial, g.NumAttrs(), "attribute", addAttr); err != nil {
		return err
	}
	return r.finish()
}

// A Delta is the parsed form of one day of append-only growth: what a
// day record added to the SAN, in application order.  Day 0 of a
// cursor walk is presented the same way — its "delta" lists the entire
// base snapshot — so consumers initialize and advance incremental
// state through a single code path.
type Delta struct {
	NewSocial   int          // social nodes added this day
	NewAttrs    int          // attribute nodes added this day
	SocialEdges []SocialEdge // new directed social links
	AttrLinks   []AttrLink   // new attribute links
}

// SocialEdge is one directed social link u -> v.
type SocialEdge struct {
	U, V san.NodeID
}

// AttrLink is one attribute link between social node U and attribute A.
type AttrLink struct {
	U san.NodeID
	A san.AttrID
}

// reset clears the delta for reuse, keeping the backing arrays.
func (d *Delta) reset() {
	d.NewSocial, d.NewAttrs = 0, 0
	d.SocialEdges = d.SocialEdges[:0]
	d.AttrLinks = d.AttrLinks[:0]
}

// fromSnapshot fills the delta with the whole of g, as if the base
// snapshot were one day of growth over an empty SAN.
func (d *Delta) fromSnapshot(g *san.SAN) {
	d.NewSocial, d.NewAttrs = g.NumSocial(), g.NumAttrs()
	g.ForEachSocialEdge(func(u, v san.NodeID) {
		d.SocialEdges = append(d.SocialEdges, SocialEdge{U: u, V: v})
	})
	for u := 0; u < g.NumSocial(); u++ {
		for _, a := range g.Attrs(san.NodeID(u)) {
			d.AttrLinks = append(d.AttrLinks, AttrLink{U: san.NodeID(u), A: a})
		}
	}
}
