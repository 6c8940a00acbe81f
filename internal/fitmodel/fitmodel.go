// Package fitmodel implements the guided greedy parameter search of
// §6: given summary statistics of a target SAN (the Google+ snapshot
// in the paper), it searches the generative model's parameter space so
// that generated SANs match the target.  The search is seeded by
// inverting the paper's Theorems 1 and 2 (which map lifetime/sleep
// parameters to the outdegree lognormal, and the new-attribute
// probability to the attribute degree exponent), then refined by
// coordinate descent on a weighted distance over the summary vector.
package fitmodel

import (
	"math"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/san"
	"repro/internal/stats"
)

// Target is the summary-statistic vector the search matches.
type Target struct {
	MuOut, SigmaOut         float64 // lognormal outdegree parameters
	Density                 float64 // |Es|/|Vs|
	MuAttrDeg, SigmaAttrDeg float64 // lognormal attribute degree (k >= 1)
	AttrSocialAlpha         float64 // power-law exponent of attribute sizes
}

// MeasureTarget extracts the summary vector from a SAN.
func MeasureTarget(g *san.SAN) Target {
	var t Target
	t.MuOut, t.SigmaOut = stats.LogMoments(metrics.OutDegrees(g))
	t.Density = g.SocialDensity()
	var pos []int
	for _, k := range metrics.AttrDegrees(g) {
		if k > 0 {
			pos = append(pos, k)
		}
	}
	t.MuAttrDeg, t.SigmaAttrDeg = stats.LogMoments(pos)
	t.AttrSocialAlpha = stats.FitPowerLawFixedXmin(metrics.AttrSocialDegrees(g), 1).Alpha
	return t
}

// distance is the weighted squared error between two summary vectors.
// Weights normalize each component to a comparable scale.
func distance(a, b Target) float64 {
	sq := func(x float64) float64 { return x * x }
	return sq(a.MuOut-b.MuOut) +
		sq(a.SigmaOut-b.SigmaOut) +
		0.02*sq(a.Density-b.Density) +
		sq(a.MuAttrDeg-b.MuAttrDeg) +
		sq(a.SigmaAttrDeg-b.SigmaAttrDeg) +
		0.5*sq(a.AttrSocialAlpha-b.AttrSocialAlpha)
}

// Options bounds the search cost.
type Options struct {
	// T is the model size per evaluation (node arrivals).
	T int
	// Sweeps is the number of coordinate-descent passes.
	Sweeps int
	Seed   uint64
}

// Result is the outcome of a search.
type Result struct {
	Params  core.Params
	Score   float64
	Evals   int
	Initial core.Params
}

// InitFromTheory inverts Theorems 1 and 2 to produce the starting
// parameters for a target: p = (α_t - 2)/(α_t - 1) for the attribute
// exponent, attribute-degree moments copied directly, and lifetime
// parameters solved by fixed-point iteration of
// μ_o = (μ_l + σ_l g(γ))/m_s (minus the Euler–Mascheroni bias) and
// σ_o = σ_l sqrt(1-δ(γ))/m_s with m_s fixed at 10.
func InitFromTheory(t Target) core.Params {
	p := core.NewDefaultParams(0)
	p.MuAttr, p.SigmaAttr = t.MuAttrDeg, t.SigmaAttrDeg
	if t.AttrSocialAlpha > 2 {
		p.PNewAttr = (t.AttrSocialAlpha - 2) / (t.AttrSocialAlpha - 1)
	} else {
		p.PNewAttr = 0.02
	}
	const eulerGamma = 0.5772156649
	ms := 10.0
	muO := t.MuOut + eulerGamma // undo the mean-field harmonic bias
	sigO := t.SigmaOut
	// Fixed point on (μ_l, σ_l).
	mu, sig := ms*muO, ms*sigO
	for i := 0; i < 12; i++ {
		gamma := -mu / sig
		g := stats.HazardG(gamma)
		d := stats.HazardDelta(gamma)
		sig = ms * sigO / math.Sqrt(math.Max(1e-6, 1-d))
		mu = ms*muO - sig*g
	}
	p.MuLife, p.SigmaLife, p.MeanSleep = mu, sig, ms
	return p
}

// Search runs the guided greedy search and returns the best parameters
// found.
func Search(target Target, opts Options) Result {
	if opts.T <= 0 {
		opts.T = 3000
	}
	if opts.Sweeps <= 0 {
		opts.Sweeps = 2
	}
	cur := InitFromTheory(target)
	cur.T = opts.T
	cur.Seed = opts.Seed
	res := Result{Initial: cur, Evals: 0}

	eval := func(p core.Params) float64 {
		res.Evals++
		g := core.Generate(p)
		return distance(MeasureTarget(g), target)
	}
	best := eval(cur)

	// Coordinate descent with multiplicative probes per parameter.
	type knob struct {
		get func(*core.Params) *float64
		min float64
		max float64
	}
	knobs := []knob{
		{func(p *core.Params) *float64 { return &p.MuLife }, 0.5, 200},
		{func(p *core.Params) *float64 { return &p.SigmaLife }, 0.5, 200},
		{func(p *core.Params) *float64 { return &p.MeanSleep }, 1, 100},
		{func(p *core.Params) *float64 { return &p.MuAttr }, 0.05, 4},
		{func(p *core.Params) *float64 { return &p.SigmaAttr }, 0.05, 3},
		{func(p *core.Params) *float64 { return &p.PNewAttr }, 0.005, 0.6},
	}
	step := 1.3
	for sweep := 0; sweep < opts.Sweeps; sweep++ {
		improvedAny := false
		for _, k := range knobs {
			for _, factor := range []float64{step, 1 / step} {
				cand := cur
				v := k.get(&cand)
				*v = clamp(*v*factor, k.min, k.max)
				if s := eval(cand); s < best {
					best, cur = s, cand
					improvedAny = true
				}
			}
		}
		if !improvedAny {
			step = 1 + (step-1)/2
		}
	}
	res.Params = cur
	res.Score = best
	return res
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
