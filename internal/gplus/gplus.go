// Package gplus is the reproduction's substitute for the paper's
// crawled Google+ dataset: a reference simulator that replays the
// three-phase evolution of Google+ (Phase I launch ramp, days 1-20;
// Phase II invite-only steady state, days 21-75; Phase III public
// release surge, days 76-98) at laptop scale and emits daily
// snapshots, exactly as the paper's crawler produced 79 daily SANs.
//
// The simulator encodes the *mechanisms* the paper hypothesizes for
// its observations, so the measurement pipeline recovers the paper's
// qualitative shapes from first principles rather than from baked-in
// curves:
//
//   - a hybrid population of "social" users (Facebook-like behavior:
//     triangle closing, high reciprocation) and "subscribers"
//     (Twitter-like behavior: follow popular accounts, rarely
//     reciprocate), with the subscriber share growing phase by phase —
//     the paper's explanation for declining reciprocity and the
//     positive → neutral → negative assortativity drift (§3.1, §3.6);
//   - truncated-normal lifetimes and degree-dependent sleep times —
//     the mechanism behind lognormal degree distributions (§5.4);
//   - LAPA first links and RR-SAN closing with per-type focal weights
//     (Employer strongest, City weakest) — the mechanism behind
//     attribute-conditioned reciprocity and the Figure 13b ordering;
//   - delayed, attribute-boosted reciprocation — the mechanism behind
//     Figure 13a's fine-grained reciprocity;
//   - a skewed attribute catalogue with early-adopter employers
//     (Google, IT/CS) whose members live longer — Figure 14.
package gplus

import (
	"container/heap"
	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/san"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Phase identifies one of the three Google+ evolution phases.
type Phase int

// The three phases of §2.2.
const (
	PhaseI   Phase = 0 // launch, days 1-20
	PhaseII  Phase = 1 // invite-only steady state, days 21-75
	PhaseIII Phase = 2 // public release, days 76-98
)

// UserKind is the behavioral type of a simulated user.
type UserKind uint8

const (
	// Social users behave like traditional social-network members.
	Social UserKind = iota
	// Subscriber users behave like Twitter followers.
	Subscriber
	// Celebrity users are rare high-visibility accounts that attract
	// followers (the publisher side of the publisher-subscriber model).
	Celebrity
)

// Config parameterizes the reference simulator.  DefaultConfig returns
// a calibrated configuration; Scale rescales the arrival volume.
type Config struct {
	Days      int // crawl horizon; the paper observed 98 days
	Phase1End int // last day of Phase I (20)
	Phase2End int // last day of Phase II (75)

	// DailyBase sets the arrival scale: Phase I ramps from 0.1x to
	// 1.1x DailyBase per day, Phase II holds 0.18x, Phase III jumps to
	// 0.45x, mirroring the relative volumes behind Figure 2a.
	DailyBase int

	// AttrProb is the fraction of users *declaring* their attributes
	// publicly (22% in the crawl).  Internally every user carries
	// attributes and they drive the mechanics (LAPA, focal closure,
	// reciprocation affinity) — the paper itself notes that undeclared
	// attributes exist and §4.3 validates that declared attributes are
	// a representative subsample.  CrawlView exposes only declared
	// attribute links, which is what the measurement pipeline sees.
	AttrProb          float64
	MuAttr, SigmaAttr float64
	// PNewValue is the probability an attribute pick mints a new value
	// instead of an existing one chosen preferentially by popularity.
	PNewValue float64
	// MaxAttrFrac caps any single attribute's membership at this
	// fraction of the current user count.  Real attribute communities
	// are a vanishing fraction of the network (the largest Google+
	// attribute is well under 0.1% of 30M users); without the cap,
	// preferential popularity at laptop scale grows a handful of
	// attributes to ~10% of all users, which distorts every
	// attribute-mass-sensitive experiment (notably Figure 15).
	MaxAttrFrac float64

	// Attachment selects the first-link building block.  The calibrated
	// simulator uses LAPA; scenario ablations swap in PA or uniform
	// attachment (the Figure 18a counterfactual).
	Attachment core.AttachKind
	// Alpha and Beta are the LAPA attachment parameters.
	Alpha, Beta float64

	// DisableClosing turns off triangle closing entirely: every wake-up
	// falls through to the attachment model.  This is the "what if
	// Google+ had no shared-circle suggestions" counterfactual; with RR
	// and RR-SAN both gone, clustering collapses toward the directed
	// Erdős–Rényi floor.
	DisableClosing bool

	// Lifetime and sleep parameters (days).
	MuLife, SigmaLife, MeanSleep float64

	// SubscriberFrac is the share of arriving users that behave as
	// subscribers, per phase: the hybrid drifts toward Twitter.
	SubscriberFrac [3]float64
	// CelebFrac is the share of arrivals that are celebrities.
	CelebFrac float64
	// CelebSplash is the number of immediate followers a celebrity
	// attracts on arrival (the "verified account" effect), seeding the
	// preferential-attachment snowball on their indegree.
	CelebSplash int

	// RecipProb is the per-phase base probability that a new
	// one-directional link is eventually reciprocated.
	RecipProb [3]float64
	// InviteProb is the per-phase probability that an arriving user
	// joins by invitation: linking to an inviter and immediately into
	// the inviter's friend cluster (the invite-tree mechanism of the
	// invitation-only phases).  It produces the high early clustering
	// that dilutes as Phase I volume ramps.
	InviteProb [3]float64
	// InviteBurst is the mean number of inviter-neighborhood links an
	// invited user creates on arrival.
	InviteBurst float64
	// InviteAttrInherit is the per-attribute-slot probability that an
	// invited user copies one of the inviter's attributes instead of
	// drawing from the catalogue: invitations travel along workplace
	// and school ties, so invitees share the inviter's communities.
	InviteAttrInherit float64
	// RecipAttrBoost adds per shared attribute to the reciprocation
	// probability multiplier: p · (1 + boost·min(a, 3)).
	RecipAttrBoost float64
	// RecipDelayMean is the mean (exponential) reciprocation delay in
	// days for quick responders.  A RecipSlowFrac share of decisions
	// instead waits an exponential RecipDelaySlowMean days: response
	// times are heavy-tailed, and the slow tail is what makes the
	// Figure 13a halfway→final methodology observable (quick-only
	// delays would resolve every pending reciprocation long before the
	// halfway snapshot).
	RecipDelayMean     float64
	RecipDelaySlowMean float64
	RecipSlowFrac      float64

	// FocalTypeWeight gives each attribute type its weight in the
	// RR-SAN first hop; Employer communities are the strongest.
	FocalTypeWeight map[san.AttrType]float64

	Seed uint64

	// Record, when set, captures the evolution event trace.
	Record *trace.Trace
	// RecordObserved, when true, records attribute links only for
	// declaring users — the trace then reconstructs the *observed*
	// (crawled) SAN rather than the full hidden-attribute network.
	// Social events are always recorded.  The paper's likelihood
	// analyses (Figure 15, §5.2) run against the observed SAN.
	RecordObserved bool
}

// DefaultConfig returns the calibrated configuration used by the
// experiment harness.  DailyBase 400 yields roughly 13k users over the
// 98-day horizon; scale it for larger runs.
func DefaultConfig() Config {
	return Config{
		Days:              98,
		Phase1End:         20,
		Phase2End:         75,
		DailyBase:         400,
		AttrProb:          0.22,
		MuAttr:            0.9,
		SigmaAttr:         0.9,
		PNewValue:         0.1,
		MaxAttrFrac:       0.015,
		Attachment:        core.AttachLAPA,
		Alpha:             1,
		Beta:              200,
		MuLife:            13,
		SigmaLife:         10,
		MeanSleep:         9,
		SubscriberFrac:    [3]float64{0.25, 0.5, 0.8},
		CelebFrac:         0.003,
		CelebSplash:       12,
		RecipProb:         [3]float64{0.40, 0.29, 0.11},
		RecipAttrBoost:    0.8,
		RecipDelayMean:    4,
		InviteProb:        [3]float64{0.85, 0.55, 0.05},
		InviteBurst:       2.5,
		InviteAttrInherit: 0.4,
		FocalTypeWeight: map[san.AttrType]float64{
			san.Employer: 7.5,
			san.School:   4.0,
			san.Major:    2.5,
			san.City:     0.9,
		},
		Seed: 42,
	}
}

// PhaseOf returns the phase containing the given day.
func (c *Config) PhaseOf(day int) Phase {
	switch {
	case day <= c.Phase1End:
		return PhaseI
	case day <= c.Phase2End:
		return PhaseII
	default:
		return PhaseIII
	}
}

// ArrivalsOn returns the number of users joining on the given day.
func (c *Config) ArrivalsOn(day int) int {
	base := float64(c.DailyBase)
	switch c.PhaseOf(day) {
	case PhaseI:
		frac := float64(day) / float64(c.Phase1End)
		return int(base * (0.1 + frac))
	case PhaseII:
		return int(base * 0.18)
	default:
		// The public-release surge decays over Phase III (the real spike
		// peaked in the first days after opening); the decay lets link
		// accumulation catch up, reproducing Figure 4b's density
		// recovery after the release drop.
		decay := 0.7 - 0.018*float64(day-c.Phase2End-1)
		if decay < 0.28 {
			decay = 0.28
		}
		return int(base * decay)
	}
}

type event struct {
	t    float64
	kind eventKind
	u, v san.NodeID
}

type eventKind uint8

const (
	evWake eventKind = iota
	evRecip
)

type eventHeap []event

func (h eventHeap) Len() int            { return len(h) }
func (h eventHeap) Less(i, j int) bool  { return h[i].t < h[j].t }
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Scratch is the reusable simulation arena: the attacher's candidate
// tables plus the simulator's neighborhood buffers.  One Scratch
// serves one running simulation at a time; sequential simulations (a
// sweep worker draining scenarios) reuse one arena so per-scenario
// goroutines stop re-allocating attacher and closing state, while
// concurrently running simulations must each own one.
type Scratch struct {
	core *core.Scratch
	// nbrs memoizes neighbor-union lists per node (triangle closing
	// revisits popular intermediates far more often than their degrees
	// change); NewWithScratch resets it so reuse across simulations is
	// safe.
	nbrs san.NeighborCache
}

// NewScratch returns an empty arena; buffers grow on first use and are
// retained across simulations.
func NewScratch() *Scratch { return &Scratch{core: core.NewScratch()} }

// Simulator is the running reference simulation.
type Simulator struct {
	Cfg Config
	G   *san.SAN
	Rng *rand.Rand

	// Progress, when set before Run, receives per-day growth counts
	// (days/nodes/links; RunTimelines adds packed-delta counts), so
	// long runs are observable while they execute.  It is not part of
	// Config: it carries no simulation semantics and never affects the
	// config digest or the output.
	Progress *obs.Progress

	attacher *core.Attacher
	catalog  *catalog
	scr      *Scratch
	// rngSrc is the PCG source behind Rng, retained because rand.Rand
	// hides it: checkpoints marshal the generator state through it.
	rngSrc *rand.PCG
	// ftw is Cfg.FocalTypeWeight flattened into a dense per-type table
	// (closeTriangle reads it once per attribute per wake-up).
	ftw [san.NumAttrTypes]float64

	kinds     []UserKind
	deaths    []float64
	lifeBoost []float64
	baseOut   []int  // outdegree right after the arrival burst
	declared  []bool // whether the user's attributes are public
	events    eventHeap
	now       float64
	day       int
}

// New builds a simulator with a small bootstrap clique of social users.
func New(cfg Config) *Simulator {
	return NewWithScratch(cfg, NewScratch())
}

// NewWithScratch is New with a caller-owned scratch arena, so a worker
// running many simulations back to back (the sweep runner) reuses one
// set of buffers instead of re-allocating per scenario.
func NewWithScratch(cfg Config, sc *Scratch) *Simulator {
	src := rand.NewPCG(cfg.Seed, cfg.Seed^0xbb67ae8584caa73b)
	s := &Simulator{
		Cfg:      cfg,
		G:        san.New(cfg.DailyBase*40, cfg.DailyBase*8, cfg.DailyBase*400),
		Rng:      rand.New(src),
		rngSrc:   src,
		attacher: core.NewAttacher(cfg.Attachment, cfg.Alpha, cfg.Beta),
		scr:      sc,
	}
	s.attacher.UseScratch(sc.core)
	sc.nbrs.Reset()
	for t, w := range cfg.FocalTypeWeight {
		// Stray keys outside the defined attribute types were always
		// inert (no attribute node carries them); keep them inert
		// instead of indexing out of range.
		if san.ValidAttrType(t) {
			s.ftw[t] = w
		}
	}
	s.catalog = newCatalog(s)
	// Bootstrap: founding social users in a reciprocal clique, all in
	// the tech community (the Google-employee launch population).
	const seed = 16
	for i := 0; i < seed; i++ {
		u := s.addUser(Social, 0)
		s.declared[u] = true
		s.catalog.assignSeedAttrs(u)
	}
	for u := 0; u < seed; u++ {
		for v := 0; v < seed; v++ {
			if u != v {
				s.addEdge(san.NodeID(u), san.NodeID(v), trace.FirstLink)
			}
		}
	}
	return s
}

// Run simulates all configured days; perDay (optional) observes the
// network at the end of each day, mirroring the daily crawl snapshots.
func (s *Simulator) Run(perDay func(day int, g *san.SAN)) *san.SAN {
	return s.runRange(1, s.Cfg.Days, observe(perDay))
}

// RunFrom continues the simulation from startDay through the configured
// horizon.  It is the resume entry point: a simulator reconstructed by
// ReadSimulator from a checkpoint taken at the end of day startDay-1
// replays days startDay..Days exactly as the uninterrupted run would
// have (same rng stream, same event order, bitwise-identical network).
func (s *Simulator) RunFrom(startDay int, perDay func(day int, g *san.SAN)) *san.SAN {
	return s.runRange(startDay, s.Cfg.Days, observe(perDay))
}

// observe adapts a pure observer callback to runRange's continue-bool
// form.
func observe(perDay func(day int, g *san.SAN)) func(day int, g *san.SAN) bool {
	if perDay == nil {
		return nil
	}
	return func(day int, g *san.SAN) bool {
		perDay(day, g)
		return true
	}
}

// runRange simulates days startDay..stopDay inclusive.  A perDay
// returning false stops the run at that day boundary: s.day stays at
// the completed day and the simulator state is exactly a checkpoint's,
// so a later runRange(s.day+1, ...) continues bitwise — this is how a
// canceled streaming pack abandons the simulation promptly without
// corrupting it.
func (s *Simulator) runRange(startDay, stopDay int, perDay func(day int, g *san.SAN) bool) *san.SAN {
	prevNodes, prevLinks := s.G.NumSocial(), s.G.NumSocialEdges()
	for day := startDay; day <= stopDay; day++ {
		s.day = day
		arrivals := s.Cfg.ArrivalsOn(day)
		for i := 0; i < arrivals; i++ {
			t := float64(day-1) + float64(i)/float64(arrivals)
			s.advanceTo(t)
			s.arrive(t)
		}
		s.advanceTo(float64(day))
		if s.Progress != nil {
			nodes, links := s.G.NumSocial(), s.G.NumSocialEdges()
			s.Progress.AddDays(1)
			s.Progress.AddNodes(nodes - prevNodes)
			s.Progress.AddLinks(links - prevLinks)
			prevNodes, prevLinks = nodes, links
		}
		if perDay != nil && !perDay(day, s.G) {
			break
		}
	}
	return s.G
}

// advanceTo processes wake and reciprocation events due at or before t.
func (s *Simulator) advanceTo(t float64) {
	s.now = t
	for len(s.events) > 0 && s.events[0].t <= t {
		e := heap.Pop(&s.events).(event)
		switch e.kind {
		case evWake:
			s.wake(e.u, e.t)
		case evRecip:
			s.maybeReciprocate(e.u, e.v, e.t)
		}
	}
}

// arrive adds one user at time t with phase-dependent behavior.
func (s *Simulator) arrive(t float64) {
	phase := s.Cfg.PhaseOf(s.day)
	kind := Social
	r := s.Rng.Float64()
	switch {
	case r < s.Cfg.CelebFrac:
		kind = Celebrity
	case r < s.Cfg.CelebFrac+s.Cfg.SubscriberFrac[phase]:
		kind = Subscriber
	}
	u := s.addUser(kind, t)

	// Invitation status and the inviter are decided before attributes,
	// because invited users inherit communities from their inviter.
	inviter := san.NodeID(-1)
	if kind != Celebrity && s.Rng.Float64() < s.Cfg.InviteProb[phase] && s.G.NumSocial() > 20 {
		var w san.NodeID
		if phase == PhaseI {
			// Launch-phase invitations spread peer-to-peer through the
			// founding community: uniform among recent arrivals, which
			// keeps early assortativity positive (§3.6).
			n := s.G.NumSocial()
			w = san.NodeID(n/2 + s.Rng.IntN(n-n/2))
		} else {
			// Later invitations skew toward sociable, well-connected
			// members (degree-biased within the recent window) — the
			// preferential-attachment signal of observed requests.
			w = s.attacher.SamplePAWindow(s.G, u, s.Rng, s.G.NumSocialEdges()/4)
		}
		if w >= 0 && w != u {
			inviter = w
		}
	}

	// Every user carries attributes; a fraction declares them.  The
	// declaration flag is decided first so observed-trace recording
	// can classify the attribute links as they are created.
	s.declared[u] = s.Rng.Float64() < s.Cfg.AttrProb
	n := stats.LognormalInt(s.Rng, s.Cfg.MuAttr, s.Cfg.SigmaAttr)
	if n > 12 {
		n = 12
	}
	s.catalog.assignWithTemplate(u, n, phase, inviter, s.Cfg.InviteAttrInherit)

	// Lifetime, extended additively (in days) by early-adopter
	// attributes: a +Δ lifetime multiplies the final outdegree by
	// roughly e^{Δ/m_s} (Theorem 1), matching Figure 14's moderate
	// per-attribute degree gaps.
	life := stats.TruncNormal(s.Rng, s.Cfg.MuLife, s.Cfg.SigmaLife) + s.lifeBoost[u]
	if life < 0 {
		life = 0
	}
	s.deaths[u] = t + life

	// Celebrities attract an immediate splash of followers, seeding
	// the indegree snowball that makes them publishers.
	if kind == Celebrity && s.G.NumSocial() > s.Cfg.CelebSplash*4 {
		for i := 0; i < s.Cfg.CelebSplash; i++ {
			f := san.NodeID(s.Rng.IntN(s.G.NumSocial()))
			if f != u {
				s.addEdge(f, u, trace.FirstLink)
			}
		}
	}

	// Invited users join onto their inviter's friend cluster: link to
	// the inviter and a burst of the inviter's neighbors.  Others issue
	// a single first link.
	if inviter >= 0 {
		s.invitedJoin(u, inviter)
	} else {
		var v san.NodeID
		if kind == Subscriber {
			v = s.attacher.SamplePAWindow(s.G, u, s.Rng, s.G.NumSocialEdges()/20)
		} else {
			v = s.attacher.Sample(s.G, u, s.Rng)
		}
		if v >= 0 {
			s.addEdge(u, v, trace.FirstLink)
		}
	}
	// The arrival burst itself must not accelerate the wake clock, or
	// invited users compound into runaway densification: the sleep
	// schedule counts only post-arrival links (Algorithm 1 starts every
	// node at effective outdegree 1).
	if d := s.G.OutDegree(u); d > 1 {
		s.baseOut[u] = d - 1
	}
	s.scheduleWake(u, t)
}

// invitedJoin links u to a uniformly random recent arrival (the
// inviter) and to a few of the inviter's neighbors, modeling the
// invite-tree growth of the invitation-only phases.
func (s *Simulator) invitedJoin(u, w san.NodeID) {
	s.addEdge(u, w, trace.FirstLink)
	nbrs := s.scr.nbrs.Neighbors(s.G, w)
	if len(nbrs) == 0 {
		return
	}
	burst := 1 + s.Rng.IntN(int(2*s.Cfg.InviteBurst))
	for i := 0; i < burst; i++ {
		v := nbrs[s.Rng.IntN(len(nbrs))]
		if v != u && !s.G.HasSocialEdge(u, v) {
			s.addEdge(u, v, trace.TriangleLink)
		}
	}
}

func (s *Simulator) addUser(kind UserKind, t float64) san.NodeID {
	u := s.G.AddSocialNode()
	s.attacher.NodeAdded()
	s.kinds = append(s.kinds, kind)
	s.deaths = append(s.deaths, t)
	s.lifeBoost = append(s.lifeBoost, 0)
	s.baseOut = append(s.baseOut, 0)
	s.declared = append(s.declared, false)
	if s.Cfg.Record != nil {
		s.Cfg.Record.Append(trace.Event{Kind: trace.NodeArrival, U: u, Time: t})
	}
	return u
}

// addEdge inserts u -> v, updates the attacher, records the event, and
// schedules a possible delayed reciprocation by v.
func (s *Simulator) addEdge(u, v san.NodeID, kind trace.Kind) bool {
	if !s.G.AddSocialEdge(u, v) {
		return false
	}
	s.attacher.EdgeAdded(v, s.G.InDegree(v))
	if s.Cfg.Record != nil {
		s.Cfg.Record.Append(trace.Event{Kind: kind, U: u, V: v, Time: s.now})
	}
	if kind != trace.ReciprocalLink && !s.G.HasSocialEdge(v, u) {
		s.scheduleReciprocation(u, v)
	}
	return true
}

// scheduleReciprocation decides, once, whether v will ever answer the
// new link u -> v, and if so schedules the (heavy-tailed) response.
// The §4.2 attribute effect acts on *whether* a pair reciprocates, not
// on the response-time distribution: this is what makes the effect
// visible in the halfway→final methodology of Figure 13a — if the
// boost only accelerated responses, the boosted pairs would simply
// complete before the halfway snapshot and the measured effect would
// cancel.
func (s *Simulator) scheduleReciprocation(u, v san.NodeID) {
	if s.kinds[v] == Celebrity || s.kinds[v] == Subscriber {
		// Publishers and pure subscribers rarely follow back.
		if s.Rng.Float64() > 0.08 {
			return
		}
	}
	phase := s.Cfg.PhaseOf(int(s.now) + 1)
	common := s.G.CommonAttrs(u, v)
	if common > 3 {
		common = 3
	}
	p := s.Cfg.RecipProb[phase] * (1 + s.Cfg.RecipAttrBoost*float64(common))
	if p > 0.95 {
		p = 0.95
	}
	if s.Rng.Float64() >= p {
		return
	}
	mean := s.Cfg.RecipDelayMean
	if s.Rng.Float64() < s.Cfg.RecipSlowFrac {
		mean = s.Cfg.RecipDelaySlowMean
	}
	heap.Push(&s.events, event{t: s.now + stats.ExpMean(s.Rng, mean), kind: evRecip, u: u, v: v})
}

// maybeReciprocate fires a scheduled reciprocation: v answers the
// earlier link u -> v.  Users past their active lifetime respond on a
// later log-in (reciprocation is a low-effort response to a
// notification), so inactive targets defer rather than drop.
func (s *Simulator) maybeReciprocate(u, v san.NodeID, t float64) {
	if s.G.HasSocialEdge(v, u) {
		return
	}
	if s.deaths[v] <= t && s.Rng.Float64() > 0.35 {
		heap.Push(&s.events, event{
			t: t + stats.ExpMean(s.Rng, s.Cfg.RecipDelaySlowMean), kind: evRecip, u: u, v: v,
		})
		return
	}
	s.addEdge(v, u, trace.ReciprocalLink)
}

// scheduleWake schedules the next wake-up of u: exponential sleep with
// mean MeanSleep/outdegree, skipped if the node dies first.
func (s *Simulator) scheduleWake(u san.NodeID, t float64) {
	do := s.G.OutDegree(u) - s.baseOut[u]
	if do < 1 {
		do = 1
	}
	wake := t + stats.ExpMean(s.Rng, s.Cfg.MeanSleep/float64(do))
	if wake >= s.deaths[u] {
		return
	}
	heap.Push(&s.events, event{t: wake, kind: evWake, u: u})
}

// wake lets u add one link: social users close triangles through the
// type-weighted RR-SAN; subscribers preferentially follow popular
// accounts (the publisher-subscriber ingredient).
func (s *Simulator) wake(u san.NodeID, t float64) {
	s.now = t
	var v san.NodeID = -1
	kind := trace.TriangleLink
	switch s.kinds[u] {
	case Subscriber:
		// Subscribers split their attention: mostly they follow
		// accounts that are popular *right now* (windowed preferential
		// attachment — attention ages, so old hubs fade and the
		// indegree tail stays lognormal rather than power law), and
		// sometimes they close triangles like everyone else.
		if s.Rng.Float64() < 0.55 {
			v = s.attacher.SamplePAWindow(s.G, u, s.Rng, s.G.NumSocialEdges()/20)
			kind = trace.FirstLink
		} else {
			v = s.closeTriangle(u)
			if v < 0 {
				v = s.attacher.SamplePAWindow(s.G, u, s.Rng, s.G.NumSocialEdges()/20)
				kind = trace.FirstLink
			}
		}
	default:
		v = s.closeTriangle(u)
		if v < 0 {
			v = s.attacher.Sample(s.G, u, s.Rng)
			kind = trace.FirstLink
		}
	}
	if v >= 0 {
		s.addEdge(u, v, kind)
	}
	s.scheduleWake(u, t)
}

// closeTriangle is RR-SAN with per-type focal weights: the first hop
// picks a social neighbor (weight 1 each) or an attribute neighbor
// (weight FocalTypeWeight[type]), then a uniform social neighbor of
// the intermediate.
func (s *Simulator) closeTriangle(u san.NodeID) san.NodeID {
	if s.Cfg.DisableClosing {
		return -1 // every wake-up falls through to the attachment model
	}
	social := s.scr.nbrs.Neighbors(s.G, u)
	attrs := s.G.Attrs(u)
	ws := float64(len(social))
	wa := 0.0
	for _, a := range attrs {
		wa += s.ftw[s.G.AttrTypeOf(a)]
	}
	if ws+wa <= 0 {
		return -1
	}
	for tries := 0; tries < 24; tries++ {
		var second []san.NodeID
		if s.Rng.Float64()*(ws+wa) < wa {
			a := s.pickAttrByWeight(attrs, wa)
			second = s.G.Members(a)
			if len(second) > 4096 {
				// Celebrity attributes: sample a bounded window so a
				// single huge community cannot dominate runtime.
				off := s.Rng.IntN(len(second) - 4096)
				second = second[off : off+4096]
			}
		} else {
			w := social[s.Rng.IntN(len(social))]
			second = s.scr.nbrs.Neighbors(s.G, w)
		}
		if len(second) == 0 {
			continue
		}
		v := second[s.Rng.IntN(len(second))]
		if v == u || s.G.HasSocialEdge(u, v) {
			continue
		}
		// Inactive accounts mostly stop circulating in streams and
		// suggestions; without this aging, triangle closing is a pure
		// Yule process and the indegree tail turns power law instead
		// of the lognormal the paper measures (Figure 5b).
		if s.deaths[v] <= s.now && s.Rng.Float64() < 0.85 {
			continue
		}
		return v
	}
	return -1
}

func (s *Simulator) pickAttrByWeight(attrs []san.AttrID, total float64) san.AttrID {
	x := s.Rng.Float64() * total
	for _, a := range attrs {
		x -= s.ftw[s.G.AttrTypeOf(a)]
		if x <= 0 {
			return a
		}
	}
	return attrs[len(attrs)-1]
}

// KindOf reports the behavioral kind assigned to user u.
func (s *Simulator) KindOf(u san.NodeID) UserKind { return s.kinds[u] }

// Declared reports whether user u's attributes are publicly visible.
func (s *Simulator) Declared(u san.NodeID) bool { return s.declared[u] }

// CrawlView returns the network as the paper's crawler saw it: the
// full social structure, all attribute nodes, but attribute links only
// for the users who declared their profiles (AttrProb ≈ 22%).  The
// whole view is one bulk filtered copy (CloneView preserves adjacency
// order, so it is indistinguishable from the historical edge-by-edge
// rebuild).
func (s *Simulator) CrawlView() *san.SAN {
	return s.G.CloneView(s.declared)
}
