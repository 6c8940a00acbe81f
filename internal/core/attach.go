package core

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"

	"repro/internal/san"
)

// AttachKind selects the link-creation building block of §5.1.
type AttachKind uint8

const (
	// AttachUniform chooses targets uniformly at random (α = β = 0).
	AttachUniform AttachKind = iota
	// AttachPA is classical preferential attachment: f ∝ (d_in+1)^α.
	AttachPA
	// AttachLAPA is Linear Attribute Preferential Attachment:
	// f ∝ (d_in+1)^α (1 + β a(u,v)).
	AttachLAPA
	// AttachPAPA is Power Attribute Preferential Attachment:
	// f ∝ (d_in+1)^α (1 + a(u,v))^β.
	AttachPAPA
)

// AttachKinds lists every attachment kind, in declaration order; the
// stream-equivalence tests sweep it.
var AttachKinds = []AttachKind{AttachUniform, AttachPA, AttachLAPA, AttachPAPA}

// String names the attachment kind.
func (k AttachKind) String() string {
	switch k {
	case AttachUniform:
		return "uniform"
	case AttachPA:
		return "PA"
	case AttachLAPA:
		return "LAPA"
	case AttachPAPA:
		return "PAPA"
	default:
		return "unknown"
	}
}

// Attacher samples link targets under the attribute-augmented
// preferential-attachment models.  It maintains Σ_v (d_in(v)+1)^α
// incrementally, so creating it once and notifying it of every node
// and edge (NodeAdded/EdgeAdded) keeps sampling cheap: O(1) draws for
// α ∈ {0, 1} (uniform / ballot decomposition) and O(log n) Fenwick
// descents for general α — never a linear scan or rejection loop on
// the hot path.
//
// Note on smoothing: the paper writes f ∝ d_in(v)^α, under which
// zero-indegree nodes can never be chosen and the process stalls at
// bootstrap.  Like most PA implementations we use d_in(v)+1 ("initial
// attractiveness one"), which preserves the asymptotics.
type Attacher struct {
	Kind  AttachKind
	Alpha float64
	Beta  float64
	// Heuristic enables the §7 approximation: pick one of the source's
	// attributes at random and run PA within that attribute's members.
	Heuristic bool
	// EnumLimit caps the shared-attribute enumeration for the exact
	// sampler; beyond it the heuristic path is used.  This bounds the
	// per-link cost when a node holds a very popular attribute (the
	// O(|V|) cost §7 warns about).  0 means 4000.
	EnumLimit int

	sumPow float64 // Σ_v (d_in(v)+1)^α over current social nodes
	n      int     // number of social nodes tracked
	// ballot holds one entry per social edge, naming the edge target.
	// For α = 1 a uniform draw from (nodes + ballot) samples exactly
	// ∝ d_in+1 in O(1), avoiding rejection-sampling degeneracy when a
	// few hubs dominate the indegree mass.
	ballot []san.NodeID
	// tree indexes (d_in(v)+1)^α per node for general exponents; it is
	// only maintained when neither O(1) decomposition applies.
	tree *weightFenwick

	scr *sampleScratch
}

// NewAttacher builds an attacher for the given model.
func NewAttacher(kind AttachKind, alpha, beta float64) *Attacher {
	a := &Attacher{Kind: kind, Alpha: alpha, Beta: beta}
	switch kind {
	case AttachUniform:
		a.Alpha, a.Beta = 0, 0
	case AttachPA:
		a.Beta = 0
	}
	return a
}

// generalAlpha reports whether sampling needs the Fenwick tree (no
// O(1) decomposition exists for this exponent).
func (at *Attacher) generalAlpha() bool { return at.Alpha != 0 && at.Alpha != 1 }

func (at *Attacher) fenwick() *weightFenwick {
	if at.tree == nil {
		at.tree = newWeightFenwick(1024)
	}
	return at.tree
}

func (at *Attacher) scratch() *sampleScratch {
	if at.scr == nil {
		at.scr = &sampleScratch{}
	}
	return at.scr
}

// UseScratch points the attacher at the shared per-simulation scratch
// arena, replacing its private buffers.  Call before sampling starts;
// the arena must not be shared by concurrently running simulations.
func (at *Attacher) UseScratch(s *Scratch) { at.scr = &s.sample }

// NodeAdded must be called when a social node joins the network.
func (at *Attacher) NodeAdded() {
	at.n++
	at.sumPow += 1 // (0+1)^α = 1 for any α
	if at.generalAlpha() {
		at.fenwick().Append(1)
	}
}

// EdgeAdded must be called after every social edge insertion; v is the
// edge target whose indegree increased to newIn.
func (at *Attacher) EdgeAdded(v san.NodeID, newIn int) {
	delta := at.powAlpha(float64(newIn)+1) - at.powAlpha(float64(newIn))
	at.sumPow += delta
	if at.Alpha == 1 {
		at.ballot = append(at.ballot, v)
	} else if at.generalAlpha() {
		at.fenwick().Add(int(v), delta)
	}
}

// powAlpha is math.Pow(x, at.Alpha) with the calibrated exponents
// resolved arithmetically: math.Pow documents Pow(x, 0) = 1 and
// Pow(x, 1) = x as exact identities, so the substitution is
// bitwise-invisible — and it removes the dominant per-candidate cost
// of exact mixture sampling, which calls this once per shared-attribute
// candidate per draw (profiled at ~7% of a calibrated α=1 crawl-scale
// run, growing super-linearly as communities fill toward EnumLimit).
func (at *Attacher) powAlpha(x float64) float64 {
	switch at.Alpha {
	case 0:
		return 1
	case 1:
		return x
	}
	return math.Pow(x, at.Alpha)
}

// bonusFactor returns the multiplicative attribute bonus minus one:
// LAPA contributes β·a, PAPA contributes (1+a)^β - 1.
func (at *Attacher) bonusFactor(a int) float64 {
	if a == 0 {
		return 0
	}
	switch at.Kind {
	case AttachLAPA:
		return at.Beta * float64(a)
	case AttachPAPA:
		return math.Pow(1+float64(a), at.Beta) - 1
	default:
		return 0
	}
}

// Sample draws a link target for source u from the current network
// state under the configured model.  It excludes u itself and existing
// out-neighbors of u; it returns -1 if no valid target can be found.
func (at *Attacher) Sample(g *san.SAN, u san.NodeID, rng *rand.Rand) san.NodeID {
	n := g.NumSocial()
	if n < 2 {
		return -1
	}
	attrAware := at.Kind == AttachLAPA || at.Kind == AttachPAPA
	if attrAware && at.Heuristic {
		if v := at.sampleHeuristic(g, u, rng); v >= 0 {
			return v
		}
		return at.sampleBase(g, u, rng)
	}
	if !attrAware || at.Beta == 0 || g.AttrDegree(u) == 0 {
		return at.sampleBase(g, u, rng)
	}

	// Exact mixture sampling: total weight splits into the attribute-
	// blind base Σ(d+1)^α and the bonus carried by nodes sharing
	// attributes with u.
	shared, prefix, bonusTotal, baseTotal, ok := at.prepareMixture(g, u)
	if !ok {
		// Too popular to enumerate exactly; approximate.
		if v := at.sampleHeuristic(g, u, rng); v >= 0 {
			return v
		}
		return at.sampleBase(g, u, rng)
	}
	return at.mixtureDraw(g, u, rng, shared, prefix, bonusTotal, baseTotal)
}

// prepareMixture builds the rng-free half of exact mixture sampling for
// source u against the *current* network state: the shared-attribute
// candidate list, its bonus prefix-sum table, and the base/bonus mass
// split.  It reports false when u's attribute communities are too
// popular to enumerate exactly (the caller approximates instead).  The
// returned slices are scratch-owned and stay valid only while the
// network does not mutate and no other prepareMixture call runs.
func (at *Attacher) prepareMixture(g *san.SAN, u san.NodeID) (shared []sharedCand, prefix []float64, bonusTotal, baseTotal float64, ok bool) {
	limit := at.EnumLimit
	if limit <= 0 {
		limit = 4000
	}
	shared, ok = at.buildShared(g, u, limit)
	if !ok {
		return nil, nil, 0, 0, false
	}
	// Candidate weights accumulate into a prefix-sum table in node-ID
	// order (the order the old linear scan consumed them in), so a
	// single uniform draw binary-searches to the index the scan picks.
	scr := at.scratch()
	prefix = scr.prefix[:0]
	for i := range shared {
		w := at.powAlpha(float64(g.InDegree(shared[i].v))+1) * at.bonusFactor(shared[i].a)
		bonusTotal += w
		prefix = append(prefix, bonusTotal)
	}
	scr.prefix = prefix
	baseTotal = at.sumPow - at.powAlpha(float64(g.InDegree(u))+1)
	if baseTotal < 0 {
		baseTotal = 0
	}
	return shared, prefix, bonusTotal, baseTotal, true
}

// mixtureDraw resolves one target from a prepared mixture, consuming
// exactly the rng draws the historical inline loop consumed.
func (at *Attacher) mixtureDraw(g *san.SAN, u san.NodeID, rng *rand.Rand, shared []sharedCand, prefix []float64, bonusTotal, baseTotal float64) san.NodeID {
	for tries := 0; tries < 64; tries++ {
		var v san.NodeID
		if rng.Float64()*(baseTotal+bonusTotal) < bonusTotal {
			v = pickShared(shared, prefix, bonusTotal, rng)
		} else {
			v = at.drawBase(g, rng)
		}
		if v >= 0 && v != u && !g.HasSocialEdge(u, v) {
			return v
		}
	}
	return at.fallbackScan(g, u, rng)
}

// sharedCand is one attribute-sharing candidate.
type sharedCand struct {
	v san.NodeID
	a int // number of common attributes
}

// sampleScratch holds the per-simulation buffers of the exact mixture
// sampler.  count is indexed by NodeID and is all-zero between calls
// (touched lists the dirtied entries, which buildShared resets);
// spare is the radix sort's second buffer.
type sampleScratch struct {
	count   []int32
	touched []san.NodeID
	spare   []san.NodeID
	shared  []sharedCand
	prefix  []float64
}

// buildShared enumerates the candidates sharing at least one attribute
// with u, ordered by ascending node ID (sampling must be deterministic
// for a fixed rng stream).  It reports false, before scanning any
// member, when the enumeration — the sum of u's community sizes —
// exceeds limit.  The result is scratch-owned and valid until the next
// call.
func (at *Attacher) buildShared(g *san.SAN, u san.NodeID, limit int) ([]sharedCand, bool) {
	enum := 0
	for _, a := range g.Attrs(u) {
		enum += len(g.Members(a))
	}
	if enum > limit {
		return nil, false
	}
	scr := at.scratch()
	if n := g.NumSocial(); len(scr.count) < n {
		scr.count = append(scr.count, make([]int32, n-len(scr.count))...)
	}
	touched := scr.touched[:0]
	var maxID san.NodeID
	for _, a := range g.Attrs(u) {
		for _, v := range g.Members(a) {
			if v == u {
				continue
			}
			if scr.count[v] == 0 {
				touched = append(touched, v)
				maxID = max(maxID, v)
			}
			scr.count[v]++
		}
	}
	touched, scr.spare = radixSort(touched, scr.spare, maxID)
	shared := scr.shared[:0]
	for _, v := range touched {
		shared = append(shared, sharedCand{v: v, a: int(scr.count[v])})
		scr.count[v] = 0
	}
	scr.touched = touched
	scr.shared = shared
	return shared, true
}

// radixSort orders ids ascending in linear time: an LSD radix over
// 8-bit digits, with only as many passes as maxID (the largest of ids)
// needs.  It sorts rather than merges u's member lists because those
// are not all ascending: NewModel lists each seed attribute's creator
// first.  spare is the second buffer; radixSort returns the sorted
// slice and whichever buffer is left over, to be passed back next call.
func radixSort(ids, spare []san.NodeID, maxID san.NodeID) (sorted, left []san.NodeID) {
	spare = slices.Grow(spare[:0], len(ids))[:len(ids)]
	for shift := 0; maxID>>shift > 0; shift += 8 {
		var start [256]int
		for _, v := range ids {
			start[v>>shift&0xff]++
		}
		sum := 0
		for d, c := range start {
			start[d] = sum
			sum += c
		}
		for _, v := range ids {
			d := v >> shift & 0xff
			spare[start[d]] = v
			start[d]++
		}
		ids, spare = spare, ids
	}
	return ids, spare
}

// pickShared resolves one uniform draw over the shared-candidate bonus
// mass by binary search over the prefix sums.  It returns -1 when
// rounding pushes the draw past the final prefix, matching the
// historical linear-scan behavior (the caller retries).
func pickShared(shared []sharedCand, prefix []float64, total float64, rng *rand.Rand) san.NodeID {
	x := rng.Float64() * total
	i := sort.Search(len(prefix), func(i int) bool { return prefix[i] >= x })
	if i == len(prefix) {
		return -1
	}
	return shared[i].v
}

// SamplePAWindow draws a target ∝ (d_in+1) computed over only the
// most recent `window` social edges (plus the uniform +1 term over all
// nodes).  It models attention aging: accounts attract followers while
// they are visible in streams, then fade.  This truncates the pure-PA
// power-law tail into the lognormal-like indegree the paper measures
// on Google+ (Figure 5b).  Only meaningful for Alpha == 1; other
// exponents fall back to SamplePA.
func (at *Attacher) SamplePAWindow(g *san.SAN, u san.NodeID, rng *rand.Rand, window int) san.NodeID {
	if at.Alpha != 1 || window <= 0 || len(at.ballot) == 0 {
		return at.sampleBase(g, u, rng)
	}
	n := g.NumSocial()
	start := 0
	if len(at.ballot) > window {
		start = len(at.ballot) - window
	}
	recent := at.ballot[start:]
	for tries := 0; tries < 64; tries++ {
		var v san.NodeID
		if i := rng.IntN(n + len(recent)); i < n {
			v = san.NodeID(i)
		} else {
			v = recent[i-n]
		}
		if v != u && !g.HasSocialEdge(u, v) {
			return v
		}
	}
	return at.fallbackScan(g, u, rng)
}

// SamplePA draws a target from the attribute-blind base model
// f ∝ (d_in+1)^α, regardless of the configured Kind.  The Google+
// simulator uses it for subscriber behavior (following popular
// accounts without attribute affinity).
func (at *Attacher) SamplePA(g *san.SAN, u san.NodeID, rng *rand.Rand) san.NodeID {
	return at.sampleBase(g, u, rng)
}

// sampleBase draws from f ∝ (d_in+1)^α ignoring attributes.
func (at *Attacher) sampleBase(g *san.SAN, u san.NodeID, rng *rand.Rand) san.NodeID {
	for tries := 0; tries < 64; tries++ {
		v := at.drawBase(g, rng)
		if v >= 0 && v != u && !g.HasSocialEdge(u, v) {
			return v
		}
	}
	return at.fallbackScan(g, u, rng)
}

// drawBase samples v with probability ∝ (d_in(v)+1)^α using one rng
// draw: a uniform index for α = 0, the O(1) ballot decomposition for
// α = 1 ("every node once" plus "every in-edge once"), and otherwise a
// single uniform draw resolved by a Fenwick descent over the
// incremental weight index.
func (at *Attacher) drawBase(g *san.SAN, rng *rand.Rand) san.NodeID {
	n := g.NumSocial()
	if n == 0 {
		return -1
	}
	if at.Alpha == 0 {
		return san.NodeID(rng.IntN(n))
	}
	if at.Alpha == 1 {
		i := rng.IntN(n + len(at.ballot))
		if i < n {
			return san.NodeID(i)
		}
		return at.ballot[i-n]
	}
	t := at.fenwick()
	if t.Len() == 0 {
		return -1
	}
	return san.NodeID(t.Search(rng.Float64() * t.Total()))
}

// sampleHeuristic implements the §7 LAPA approximation: pick one of
// u's attributes uniformly at random and run preferential attachment
// within that attribute's member list.  Returns -1 when u has no
// usable attribute.
func (at *Attacher) sampleHeuristic(g *san.SAN, u san.NodeID, rng *rand.Rand) san.NodeID {
	attrs := g.Attrs(u)
	if len(attrs) == 0 {
		return -1
	}
	a := attrs[rng.IntN(len(attrs))]
	members := g.Members(a)
	if len(members) < 2 {
		return -1
	}
	// Rejection envelope over the attribute community, from the SAN's
	// incrementally maintained per-attribute in-degree maximum (the
	// historical member-list scan, at O(1)).
	env := at.powAlpha(float64(g.MaxMemberInDegree(a)) + 1)
	for tries := 0; tries < 256; tries++ {
		v := members[rng.IntN(len(members))]
		if v == u || g.HasSocialEdge(u, v) {
			continue
		}
		w := at.powAlpha(float64(g.InDegree(v)) + 1)
		if rng.Float64()*env <= w {
			return v
		}
	}
	return -1
}

// fallbackScan linearly scans for any valid target, used only when
// repeated draws kept colliding with existing neighbors (e.g. u
// already links to almost everyone).
func (at *Attacher) fallbackScan(g *san.SAN, u san.NodeID, rng *rand.Rand) san.NodeID {
	n := g.NumSocial()
	start := rng.IntN(n)
	for i := 0; i < n; i++ {
		v := san.NodeID((start + i) % n)
		if v != u && !g.HasSocialEdge(u, v) {
			return v
		}
	}
	return -1
}

// LogProb returns the exact log-probability that the model picks v as
// the target for source u in the current network state, marginalizing
// over the full candidate set.  The per-candidate weights are the ones
// Sample draws from: (d_in+1)^α times the attribute bonus.  O(|Vs|):
// used by the likelihood experiments, not the generator.
func (at *Attacher) LogProb(g *san.SAN, u, v san.NodeID, alpha, beta float64, kind AttachKind) float64 {
	var total, chosen float64
	n := g.NumSocial()
	for w := 0; w < n; w++ {
		if san.NodeID(w) == u {
			continue
		}
		f := math.Pow(float64(g.InDegree(san.NodeID(w)))+1, alpha)
		if kind == AttachLAPA || kind == AttachPAPA {
			if a := g.CommonAttrs(u, san.NodeID(w)); a > 0 {
				switch kind {
				case AttachLAPA:
					f *= 1 + beta*float64(a)
				case AttachPAPA:
					f *= math.Pow(1+float64(a), beta)
				}
			}
		}
		total += f
		if san.NodeID(w) == v {
			chosen = f
		}
	}
	if chosen == 0 || total == 0 {
		return math.Inf(-1)
	}
	return math.Log(chosen / total)
}
