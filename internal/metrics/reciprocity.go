package metrics

import "repro/internal/san"

// ReciprocityBucket aggregates the fine-grained reciprocity r_{s,a} of
// §4.2 for one (common-social-neighbor, common-attribute) class.
type ReciprocityBucket struct {
	CommonSocial int // s: common social neighbors at the halfway snapshot
	CommonAttrs  int // a: 0, 1, or 2 (meaning >= 2)
	Links        int // one-directional links observed in the class
	Reciprocated int // of those, links whose reverse exists at the end
}

// Rate returns the reciprocation fraction of the bucket.
func (b ReciprocityBucket) Rate() float64 {
	if b.Links == 0 {
		return 0
	}
	return float64(b.Reciprocated) / float64(b.Links)
}

// FineGrainedReciprocity implements the Figure 13a methodology: scan
// every one-directional social link (u, v) in the halfway snapshot,
// classify it by the number of common social neighbors (capped at
// maxCommon) and common attributes (0, 1, >= 2, recorded as 2) of its
// endpoints in the halfway snapshot, and test whether the reverse link
// (v, u) exists in the final snapshot.
//
// The returned slice is indexed by [attrClass*(maxCommon+1) + s].
func FineGrainedReciprocity(half, final *san.SAN, maxCommon int) []ReciprocityBucket {
	if maxCommon < 1 {
		maxCommon = 50
	}
	buckets := make([]ReciprocityBucket, 3*(maxCommon+1))
	for i := range buckets {
		buckets[i].CommonSocial = i % (maxCommon + 1)
		buckets[i].CommonAttrs = i / (maxCommon + 1)
	}
	var mark san.Marker
	half.ForEachSocialEdge(func(u, v san.NodeID) {
		if half.HasSocialEdge(v, u) {
			return // already mutual at the halfway point
		}
		s := half.CommonSocialNeighbors(u, v, &mark)
		if s > maxCommon {
			s = maxCommon
		}
		a := half.CommonAttrs(u, v)
		if a > 2 {
			a = 2
		}
		idx := a*(maxCommon+1) + s
		buckets[idx].Links++
		if int(v) < final.NumSocial() && int(u) < final.NumSocial() && final.HasSocialEdge(v, u) {
			buckets[idx].Reciprocated++
		}
	})
	return buckets
}

// ReciprocityByAttrClass reduces the fine-grained buckets to the three
// attribute classes of Figure 13a, aggregating over the social-
// neighbor axis into bins of the given width for plotting.
func ReciprocityByAttrClass(buckets []ReciprocityBucket, maxCommon, binWidth int) [3][]ReciprocityBucket {
	if binWidth < 1 {
		binWidth = 5
	}
	var out [3][]ReciprocityBucket
	nBins := (maxCommon + binWidth) / binWidth
	for a := 0; a < 3; a++ {
		bins := make([]ReciprocityBucket, nBins)
		for s := 0; s <= maxCommon; s++ {
			b := buckets[a*(maxCommon+1)+s]
			bin := s / binWidth
			if bin >= nBins {
				bin = nBins - 1
			}
			bins[bin].CommonSocial = bin*binWidth + binWidth/2
			bins[bin].CommonAttrs = a
			bins[bin].Links += b.Links
			bins[bin].Reciprocated += b.Reciprocated
		}
		out[a] = bins
	}
	return out
}
