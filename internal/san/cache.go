package san

// NeighborCache memoizes SocialNeighbors union lists per node.  The
// simulator's triangle-closing step repeatedly asks for the
// neighborhood of the same popular intermediates between graph
// mutations; the cache builds a node's list once with a mark-stamped
// two-pass merge and then, because adjacency is append-only, keeps it
// current with incremental edits proportional to the degree change —
// never a second full O(deg) rebuild.
//
// A cache serves one goroutine and one evolving SAN at a time.  Reset
// it before pointing it at a different SAN (stamps are keyed by
// degrees, which restart across simulations).  Returned slices are
// cache-owned, valid until the next mutation of that node, and must
// not be modified.
type NeighborCache struct {
	lists  [][]NodeID
	stamps []uint64
	mark   Marker
}

// Reset invalidates every entry (buffers are retained for reuse).
func (c *NeighborCache) Reset() {
	clear(c.stamps)
}

// Neighbors returns Γs(u) in SocialNeighbors order, rebuilding the
// memoized list only if u gained a social link since the last call.
func (c *NeighborCache) Neighbors(g *SAN, u NodeID) []NodeID {
	for int(u) >= len(c.lists) {
		c.lists = append(c.lists, nil)
		c.stamps = append(c.stamps, 0)
	}
	// +1 keeps the zero stamp meaning "never built", including for
	// isolated nodes with degree (0, 0).
	out, in := g.out[u], g.in[u]
	cur := (uint64(len(out))<<32 | uint64(uint32(len(in)))) + 1
	if c.stamps[u] == cur {
		return c.lists[u]
	}
	// Adjacency is append-only, so a stale list updates in place instead
	// of rebuilding: the cached list is out ++ T where T filters
	// in[:prevIn] against the out-list as of the last build.  New
	// in-entries append (skipping current out-neighbors), and new
	// out-entries splice in at the out/in boundary while dropping their
	// duplicates from T.  Both produce the exact element sequence a full
	// rebuild would.  This is what keeps total cache cost near-linear as
	// hub degrees grow with network size: a celebrity gaining followers
	// between every two lookups pays O(Δin · log deg) appends, and a
	// waking node adding a link pays one sequential splice — not the
	// O(deg) mark-and-merge over two scattered adjacency lists.
	if prev := c.stamps[u]; prev != 0 {
		prevOut := int((prev - 1) >> 32)
		prevIn := int(uint32(prev - 1))
		lst := c.lists[u]
		if delta := out[prevOut:]; len(delta) > 0 {
			// Filter Δout's members out of the old in-tail (they were
			// in-only neighbors, now out-neighbors too), then splice
			// Δout in after the out prefix.
			w := prevOut
			for _, v := range lst[prevOut:] {
				if !sliceHas(delta, v) {
					lst[w] = v
					w++
				}
			}
			lst = append(lst[:w], delta...)
			copy(lst[prevOut+len(delta):], lst[prevOut:w])
			copy(lst[prevOut:], delta)
		}
		for _, v := range in[prevIn:] {
			if !containsID(g.outSorted[u], v) {
				lst = append(lst, v)
			}
		}
		c.lists[u] = lst
		c.stamps[u] = cur
		return lst
	}
	c.mark.Reset(g.NumSocial())
	lst := c.lists[u][:0]
	for _, v := range out {
		c.mark.Mark(v)
		lst = append(lst, v)
	}
	for _, v := range in {
		if !c.mark.Marked(v) {
			lst = append(lst, v)
		}
	}
	c.lists[u] = lst
	c.stamps[u] = cur
	return lst
}

// sliceHas reports membership by linear probe: Δout between two cache
// touches of the same node is almost always a single edge.
func sliceHas(s []NodeID, v NodeID) bool {
	for _, w := range s {
		if w == v {
			return true
		}
	}
	return false
}
