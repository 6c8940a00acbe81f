package gplus

import (
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/san"
	"repro/internal/stats"
	"repro/internal/trace"
)

// The shared fixture runs one medium simulation reused by the
// shape-verification tests (building it is the expensive part).
var (
	fixtureOnce sync.Once
	fixtureSim  *Simulator
	fixtureView *san.SAN
	// phase-boundary reciprocity/assortativity samples
	fixtureRecip  map[int]float64
	fixtureAssort map[int]float64
)

func fixture(t *testing.T) (*Simulator, *san.SAN) {
	t.Helper()
	fixtureOnce.Do(func() {
		cfg := DefaultConfig()
		cfg.DailyBase = 150
		sim := New(cfg)
		fixtureRecip = make(map[int]float64)
		fixtureAssort = make(map[int]float64)
		sim.StreamTimelines(1, 0, nil, nil, func(day int, g, _ *san.SAN) error {
			switch day {
			case 20, 50, 75, 98:
				fixtureRecip[day] = g.Reciprocity()
				fixtureAssort[day] = metrics.SocialAssortativity(g)
			}
			return nil
		})
		fixtureSim = sim
		fixtureView = sim.CrawlView()
	})
	return fixtureSim, fixtureView
}

func TestPhaseBoundaries(t *testing.T) {
	cfg := DefaultConfig()
	cases := []struct {
		day  int
		want Phase
	}{
		{1, PhaseI}, {20, PhaseI}, {21, PhaseII}, {75, PhaseII}, {76, PhaseIII}, {98, PhaseIII},
	}
	for _, c := range cases {
		if got := cfg.PhaseOf(c.day); got != c.want {
			t.Errorf("PhaseOf(%d) = %v, want %v", c.day, got, c.want)
		}
	}
}

func TestArrivalScheduleShape(t *testing.T) {
	cfg := DefaultConfig()
	// Phase I ramps up.
	if cfg.ArrivalsOn(2) >= cfg.ArrivalsOn(19) {
		t.Errorf("Phase I should ramp: day2=%d day19=%d", cfg.ArrivalsOn(2), cfg.ArrivalsOn(19))
	}
	// Phase II is slower than late Phase I.
	if cfg.ArrivalsOn(30) >= cfg.ArrivalsOn(20) {
		t.Errorf("Phase II (%d) should be slower than late Phase I (%d)",
			cfg.ArrivalsOn(30), cfg.ArrivalsOn(20))
	}
	// Public release jumps.
	if cfg.ArrivalsOn(76) <= 2*cfg.ArrivalsOn(75) {
		t.Errorf("Phase III jump missing: day75=%d day76=%d", cfg.ArrivalsOn(75), cfg.ArrivalsOn(76))
	}
	// And decays within Phase III.
	if cfg.ArrivalsOn(95) >= cfg.ArrivalsOn(77) {
		t.Errorf("Phase III should decay: day77=%d day95=%d", cfg.ArrivalsOn(77), cfg.ArrivalsOn(95))
	}
	for d := 1; d <= 98; d++ {
		if cfg.ArrivalsOn(d) <= 0 {
			t.Fatalf("ArrivalsOn(%d) = %d", d, cfg.ArrivalsOn(d))
		}
	}
}

func TestSimulationBasicValidity(t *testing.T) {
	sim, view := fixture(t)
	if err := sim.G.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := view.Validate(); err != nil {
		t.Fatal(err)
	}
	if sim.G.NumSocial() < 4000 {
		t.Errorf("simulation too small: %d social nodes", sim.G.NumSocial())
	}
	// The crawl is one large WCC (the paper's coverage claim).
	if wcc := view.LargestWCCSize(); float64(wcc) < 0.95*float64(view.NumSocial()) {
		t.Errorf("largest WCC %d of %d nodes; crawl should be connected", wcc, view.NumSocial())
	}
}

func TestCrawlViewDeclarationSubsampling(t *testing.T) {
	sim, view := fixture(t)
	if view.NumSocial() != sim.G.NumSocial() || view.NumSocialEdges() != sim.G.NumSocialEdges() {
		t.Errorf("view must preserve social structure: %+v vs %+v", view.Stats(), sim.G.Stats())
	}
	frac := float64(view.NumAttrEdges()) / float64(sim.G.NumAttrEdges())
	if math.Abs(frac-sim.Cfg.AttrProb) > 0.05 {
		t.Errorf("declared attribute-link fraction = %.3f, want ≈ %.2f", frac, sim.Cfg.AttrProb)
	}
	// Non-declaring users expose no attributes in the view.
	for u := 0; u < view.NumSocial(); u++ {
		if !sim.Declared(san.NodeID(u)) && view.AttrDegree(san.NodeID(u)) > 0 {
			t.Fatalf("undeclared user %d has %d visible attributes", u, view.AttrDegree(san.NodeID(u)))
		}
	}
}

// TestDegreeDistributionShapes is the headline §3.5/§4.1 check: social
// out/indegree and attribute degree are lognormal-like (lognormal must
// beat the power law), while the attribute social degree has a
// power-law exponent near 2.1.
func TestDegreeDistributionShapes(t *testing.T) {
	_, view := fixture(t)

	out := stats.SelectModel(metrics.OutDegrees(view))
	if out.Winner == "power-law" {
		t.Errorf("outdegree best fit = power-law (R=%.1f), paper reports lognormal", out.R)
	}
	if out.Lognormal.Mu < 1.0 || out.Lognormal.Mu > 2.4 {
		t.Errorf("outdegree μ = %.2f, paper regime is ≈1.2-2.0", out.Lognormal.Mu)
	}

	// Indegree sits near the lognormal/power-law boundary at fixture
	// scale (both KS < 0.05); reject only a decisive power-law win.
	in := stats.SelectModel(metrics.InDegrees(view))
	if in.Winner == "power-law" && in.Lognormal.KS > 2*in.PowerLaw.KS {
		t.Errorf("indegree decisively power-law (R=%.1f, KS %.3f vs %.3f); paper reports lognormal",
			in.R, in.Lognormal.KS, in.PowerLaw.KS)
	}

	var attrDegs []int
	for _, k := range metrics.AttrDegrees(view) {
		if k > 0 {
			attrDegs = append(attrDegs, k)
		}
	}
	ad := stats.SelectModel(attrDegs)
	if ad.Winner == "power-law" {
		t.Errorf("attribute degree best fit = power-law, paper reports lognormal")
	}

	// The xmin scan is unstable on the cap-truncated tail at fixture
	// scale; track the body slope at fixed xmin = 1 as the Figure 11b
	// evolution series does, and accept a heavy-tail band around the
	// paper's ≈2.05.
	asd := stats.FitPowerLawFixedXmin(metrics.AttrSocialDegrees(view), 1)
	if asd.Alpha < 1.5 || asd.Alpha > 2.8 {
		t.Errorf("attribute social-degree exponent = %.2f, paper reports ≈2.0-2.1", asd.Alpha)
	}
}

// TestReciprocityEvolution checks the Figure 4a shape: reciprocity in
// the paper's 0.38-0.46 band, declining from the Phase II level
// through Phase III.
func TestReciprocityEvolution(t *testing.T) {
	fixture(t)
	r20, r50, r98 := fixtureRecip[20], fixtureRecip[50], fixtureRecip[98]
	if r20 < 0.3 || r20 > 0.65 {
		t.Errorf("day-20 reciprocity = %.3f, expected a Google+-like 0.3-0.65", r20)
	}
	if !(r98 < r50) {
		t.Errorf("reciprocity should decline into Phase III: day50=%.3f day98=%.3f", r50, r98)
	}
	if r98 < 0.25 || r98 > 0.5 {
		t.Errorf("final reciprocity = %.3f, paper reports ≈0.38", r98)
	}
}

// TestAssortativityDrift checks the §3.6 drift: near-neutral overall,
// more positive early than late.
func TestAssortativityDrift(t *testing.T) {
	fixture(t)
	early, late := fixtureAssort[20], fixtureAssort[98]
	if early <= late {
		t.Errorf("assortativity should drift downward: day20=%.3f day98=%.3f", early, late)
	}
	if early < 0 {
		t.Errorf("Phase I assortativity = %.3f, want positive", early)
	}
	if late > 0.08 {
		t.Errorf("final assortativity = %.3f, want neutral-to-negative", late)
	}
}

// TestEmployerStrongestCommunity checks the Figure 13b ordering:
// Employer communities cluster most, City least.
func TestEmployerStrongestCommunity(t *testing.T) {
	_, view := fixture(t)
	rng := rand.New(rand.NewPCG(3, 3))
	byType := metrics.AverageAttrClusteringByType(view, rng)
	if !(byType[san.Employer] > byType[san.City]) {
		t.Errorf("Employer clustering (%.4f) should exceed City (%.4f)",
			byType[san.Employer], byType[san.City])
	}
	if !(byType[san.Employer] >= byType[san.Major]) {
		t.Errorf("Employer clustering (%.4f) should be the strongest (Major %.4f)",
			byType[san.Employer], byType[san.Major])
	}
}

// TestGoogleEmployeesHaveHigherDegrees checks Figure 14's direction on
// the full (undeclared included) network, where membership is complete.
func TestGoogleEmployeesHaveHigherDegrees(t *testing.T) {
	sim, _ := fixture(t)
	med := func(name string) float64 {
		a, ok := sim.G.AttrByName(name)
		if !ok {
			t.Fatalf("missing seed attribute %q", name)
		}
		degs := metrics.OutDegreesWithAttr(sim.G, a)
		if len(degs) < 10 {
			t.Skipf("too few %q members (%d) at this scale", name, len(degs))
		}
		return stats.PercentilesInt(degs, 50)[0]
	}
	if g, i := med("Google"), med("Infosys"); g <= i {
		t.Errorf("median outdegree Google=%.1f should exceed Infosys=%.1f", g, i)
	}
	if cs, ps := med("Computer Science"), med("Political Science"); cs <= ps {
		t.Errorf("median outdegree CS=%.1f should exceed PoliSci=%.1f", cs, ps)
	}
}

// TestSharedAttributeReciprocity checks the Figure 13a effect on the
// simulator output: one-directional links between attribute-sharing
// endpoints reciprocate more often.
func TestSharedAttributeReciprocity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DailyBase = 100
	cfg.Seed = 7
	sim := New(cfg)
	var half *san.SAN
	err := sim.StreamTimelines(1, 0, nil, nil, func(day int, g, _ *san.SAN) error {
		if day == 49 {
			half = g.Clone()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	final := sim.G
	buckets := metrics.FineGrainedReciprocity(half, final, 30)
	classes := metrics.ReciprocityByAttrClass(buckets, 30, 31) // one bin per class
	var rates [3]float64
	for a := 0; a < 3; a++ {
		b := classes[a][0]
		if b.Links < 20 {
			t.Skipf("class %d has only %d links at this scale", a, b.Links)
		}
		rates[a] = b.Rate()
	}
	if !(rates[1] > rates[0]) {
		t.Errorf("1-common-attribute reciprocity %.3f should exceed 0-attribute %.3f",
			rates[1], rates[0])
	}
}

func TestTraceRecordingReplays(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DailyBase = 40
	cfg.Record = &trace.Trace{}
	sim := New(cfg)
	if err := sim.StreamTimelines(1, 0, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	g := sim.G
	replayed := cfg.Record.Replay(nil)
	if replayed.NumSocial() != g.NumSocial() || replayed.NumSocialEdges() != g.NumSocialEdges() {
		t.Errorf("replay = %+v, want %+v", replayed.Stats(), g.Stats())
	}
	if replayed.NumAttrs() != g.NumAttrs() || replayed.NumAttrEdges() != g.NumAttrEdges() {
		t.Errorf("replay attrs = %+v, want %+v", replayed.Stats(), g.Stats())
	}
}

// simulate runs cfg over its whole horizon with no sinks and returns
// the final SAN.
func simulate(t *testing.T, cfg Config) *san.SAN {
	t.Helper()
	sim := New(cfg)
	if err := sim.StreamTimelines(1, 0, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	return sim.G
}

func TestDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DailyBase = 30
	a, b := simulate(t, cfg), simulate(t, cfg)
	if a.NumSocialEdges() != b.NumSocialEdges() || a.NumAttrEdges() != b.NumAttrEdges() {
		t.Errorf("same seed differs: (%d,%d) vs (%d,%d)",
			a.NumSocialEdges(), a.NumAttrEdges(), b.NumSocialEdges(), b.NumAttrEdges())
	}
	cfg.Seed = 1234
	c := simulate(t, cfg)
	if c.NumSocialEdges() == a.NumSocialEdges() {
		t.Log("note: different seeds produced equal edge counts (possible but unlikely)")
	}
}

func TestUserKindsAssigned(t *testing.T) {
	sim, _ := fixture(t)
	counts := map[UserKind]int{}
	for u := 0; u < sim.G.NumSocial(); u++ {
		counts[sim.KindOf(san.NodeID(u))]++
	}
	if counts[Social] == 0 || counts[Subscriber] == 0 || counts[Celebrity] == 0 {
		t.Errorf("all user kinds should appear: %v", counts)
	}
	if counts[Celebrity] > counts[Social] {
		t.Errorf("celebrities (%d) should be rare vs social (%d)", counts[Celebrity], counts[Social])
	}
}

// TestStrayFocalTypeWeightKeyIgnored pins the focal-weight table
// flattening: map keys outside the defined attribute types were always
// inert (no attribute node carries them) and must stay inert rather
// than panic New.
func TestStrayFocalTypeWeightKeyIgnored(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DailyBase = 10
	cfg.Days = 5
	cfg.Phase1End, cfg.Phase2End = 2, 4
	cfg.FocalTypeWeight[san.AttrType(9)] = 0.5
	if simulate(t, cfg).NumSocial() == 0 {
		t.Fatal("simulation produced no users")
	}
}
