package snapstore

import (
	"encoding/binary"
	"fmt"

	"repro/internal/san"
)

// Record tags: every timeline day record starts with one of these.
const (
	tagSnapshot = 'S' // full snapshot (day 0)
	tagDelta    = 'D' // forward delta against the previous day
)

// EncodeSnapshot packs g into the binary snapshot format:
//
//	'S'
//	uvarint numSocial
//	uvarint numAttrs, then per attribute: type byte, name len, name
//	per social node u: delta-varint sorted out-neighbor list
//	per social node u: delta-varint sorted attribute list
//
// Only the out-adjacency and the social→attribute lists are stored;
// the in-adjacency and attribute membership lists are derived on
// decode.  Neighbor lists are written in canonical sorted order, so
// the format round-trips everything except adjacency ordering.
//
// A non-nil declared encodes the crawl view of g instead: the attribute
// list of every user u with u >= len(declared) or !declared[u] is
// written empty, so the record is the one g.CloneView(declared) encodes
// to.  With nil every attribute list is written.
func EncodeSnapshot(g *san.SAN, declared []bool) []byte {
	buf := make([]byte, 0, 16+g.NumSocialEdges()*2+g.NumAttrEdges()*2)
	buf = append(buf, tagSnapshot)
	buf = binary.AppendUvarint(buf, uint64(g.NumSocial()))
	buf = binary.AppendUvarint(buf, uint64(g.NumAttrs()))
	for a := 0; a < g.NumAttrs(); a++ {
		buf = appendAttrEntry(buf, g.AttrTypeOf(san.AttrID(a)), g.AttrName(san.AttrID(a)))
	}
	// The SAN maintains sorted adjacency incrementally (its membership
	// index), so canonical encoding order needs no per-node copy+sort.
	for u := 0; u < g.NumSocial(); u++ {
		buf = appendIDList(buf, g.OutSorted(san.NodeID(u)))
	}
	for u := 0; u < g.NumSocial(); u++ {
		var attrs []san.AttrID
		if visible(declared, u) {
			attrs = g.AttrsSorted(san.NodeID(u))
		}
		buf = appendIDList(buf, attrs)
	}
	return buf
}

// visible reports whether user u's attribute links are encoded under
// declared: always when declared is nil, else only for declared users
// (users at or past len(declared) count as undeclared, as in
// san.CloneView).
func visible(declared []bool, u int) bool {
	return declared == nil || u < len(declared) && declared[u]
}

// DecodeSnapshot parses a full-snapshot record back into a SAN.  It
// rejects malformed input: unknown tags, truncated varints, duplicate
// edges, out-of-range identifiers and trailing garbage all error.
func DecodeSnapshot(rec []byte) (*san.SAN, error) {
	r := &reader{buf: rec}
	if tag := r.byte(); r.err == nil && tag != tagSnapshot {
		return nil, fmt.Errorf("snapstore: not a snapshot record (tag %q)", tag)
	}
	numSocial := r.count(1, "social node")
	numAttrs := r.count(2, "attribute node")
	if r.err != nil {
		return nil, r.err
	}
	g := san.New(numSocial, numAttrs, len(rec)/2)
	g.AddSocialNodes(numSocial)
	if err := decodeAttrCatalog(r, g, numAttrs); err != nil {
		return nil, err
	}
	for u := 0; u < numSocial; u++ {
		for _, v := range readIDList[san.NodeID](r, numSocial, "social neighbor") {
			if !g.AddSocialEdge(san.NodeID(u), v) {
				return nil, fmt.Errorf("snapstore: invalid social edge (%d,%d)", u, v)
			}
		}
		if r.err != nil {
			return nil, r.err
		}
	}
	for u := 0; u < numSocial; u++ {
		for _, a := range readIDList[san.AttrID](r, g.NumAttrs(), "attribute") {
			if !g.AddAttrEdge(san.NodeID(u), a) {
				return nil, fmt.Errorf("snapstore: duplicate attribute link (%d,%d)", u, a)
			}
		}
		if r.err != nil {
			return nil, r.err
		}
	}
	return g, r.finish()
}

// decodeAttrCatalog appends n catalog entries to g, verifying that
// names stay unique so decoded attribute IDs remain dense and ordered.
func decodeAttrCatalog(r *reader, g *san.SAN, n int) error {
	base := g.NumAttrs()
	for i := 0; i < n; i++ {
		t, name := readAttrEntry(r)
		if r.err != nil {
			return r.err
		}
		if got := g.AddAttrNode(name, t); int(got) != base+i {
			return fmt.Errorf("snapstore: duplicate attribute name %q", name)
		}
	}
	return nil
}
