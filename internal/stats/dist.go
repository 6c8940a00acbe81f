// Package stats provides the statistical substrate for the SAN
// reproduction: samplers for the distributions the paper's model draws
// from (discrete lognormal, truncated normal, discrete power law,
// exponential), maximum-likelihood fitters with goodness-of-fit in the
// style of Clauset–Shalizi–Newman (the "tool for fitting degree
// distributions" the paper cites), and descriptive helpers (CCDF,
// log-binned PMFs, percentiles, correlation).
//
// Everything is deterministic given a *rand.Rand and uses only the
// standard library.
package stats

import (
	"math"
	"math/rand/v2"
)

// NormalPDF is the standard normal density φ(x).
func NormalPDF(x float64) float64 {
	return math.Exp(-x*x/2) / math.Sqrt(2*math.Pi)
}

// NormalCDF is the standard normal distribution function Φ(x).
func NormalCDF(x float64) float64 {
	return 0.5 * (1 + math.Erf(x/math.Sqrt2))
}

// HazardG computes g(γ) = φ(γ) / (1 - Φ(γ)), the hazard function of
// the standard normal.  It appears in Theorem 1's mean of a normal
// distribution truncated at γ standard deviations below the mean.
// The tail 1-Φ(γ) is evaluated with erfc to stay accurate for large γ.
func HazardG(gamma float64) float64 {
	denom := 0.5 * math.Erfc(gamma/math.Sqrt2)
	if denom < 1e-300 {
		// Asymptotic: g(γ) → γ + 1/γ as γ → ∞.
		return gamma + 1/gamma
	}
	return NormalPDF(gamma) / denom
}

// HazardDelta computes δ(γ) = g(γ)(g(γ) - γ), the variance reduction
// factor of the truncated normal in Theorem 1.
func HazardDelta(gamma float64) float64 {
	g := HazardG(gamma)
	return g * (g - gamma)
}

// TruncNormal samples from a normal distribution with the given mean
// and standard deviation truncated to x >= 0, as the paper uses for
// node lifetimes (§5.3).  For heavily truncated regimes it switches to
// Robert's exponential-proposal rejection sampler, so it remains
// efficient even when mean/std is very negative.
func TruncNormal(rng *rand.Rand, mean, std float64) float64 {
	if std <= 0 {
		if mean < 0 {
			return 0
		}
		return mean
	}
	gamma := -mean / std // truncation point in standard units
	if gamma < 2 {
		// Plain rejection: acceptance probability 1-Φ(γ) is large.
		for {
			x := mean + std*rng.NormFloat64()
			if x >= 0 {
				return x
			}
		}
	}
	// Robert (1995) one-sided tail sampler for z >= γ.
	alpha := (gamma + math.Sqrt(gamma*gamma+4)) / 2
	for {
		z := gamma + rng.ExpFloat64()/alpha
		rho := math.Exp(-(z - alpha) * (z - alpha) / 2)
		if rng.Float64() <= rho {
			return mean + std*z
		}
	}
}

// TruncNormalMean returns the mean μ + σ·g(γ) of the zero-truncated
// normal, with γ = -μ/σ (Theorem 1).
func TruncNormalMean(mean, std float64) float64 {
	return mean + std*HazardG(-mean/std)
}

// TruncNormalVar returns the variance σ²(1-δ(γ)) of the zero-truncated
// normal (Theorem 1).
func TruncNormalVar(mean, std float64) float64 {
	return std * std * (1 - HazardDelta(-mean/std))
}

// LognormalInt samples a positive integer whose logarithm is
// approximately normal with parameters mu and sigma: the discrete
// lognormal attribute-degree distribution of §5.3.  Values round to
// the nearest integer and are clamped to >= 1.
func LognormalInt(rng *rand.Rand, mu, sigma float64) int {
	x := math.Exp(mu + sigma*rng.NormFloat64())
	k := int(x + 0.5)
	if k < 1 {
		k = 1
	}
	return k
}

// Lognormal samples a continuous lognormal variate.
func Lognormal(rng *rand.Rand, mu, sigma float64) float64 {
	return math.Exp(mu + sigma*rng.NormFloat64())
}

// PowerLawSampler draws exact discrete power-law variates
// p(k) = k^{-α}/ζ(α, xmin).  The head of the distribution (the first
// few thousand support points, which carry nearly all of the mass) is
// sampled by inverse CDF over a precomputed table; the far tail falls
// back to the asymptotically exact continuous inverse.
type PowerLawSampler struct {
	Alpha float64
	Xmin  int
	cdf   []float64 // cdf[i] = P(K <= Xmin+i)
	zeta  float64   // ζ(α, xmin)
}

// NewPowerLawSampler builds a sampler for exponent alpha > 1 and
// minimum value xmin >= 1.
func NewPowerLawSampler(alpha float64, xmin int) *PowerLawSampler {
	if alpha <= 1 {
		panic("stats: NewPowerLawSampler requires alpha > 1")
	}
	if xmin < 1 {
		xmin = 1
	}
	s := &PowerLawSampler{Alpha: alpha, Xmin: xmin, zeta: HurwitzZeta(alpha, float64(xmin))}
	const tableSize = 4096
	s.cdf = make([]float64, tableSize)
	cum := 0.0
	for i := 0; i < tableSize; i++ {
		cum += math.Pow(float64(xmin+i), -alpha) / s.zeta
		s.cdf[i] = cum
	}
	return s
}

// Sample draws one variate.
func (s *PowerLawSampler) Sample(rng *rand.Rand) int {
	u := rng.Float64()
	n := len(s.cdf)
	if u <= s.cdf[n-1] {
		// Binary search for the smallest i with cdf[i] >= u.
		lo, hi := 0, n-1
		for lo < hi {
			mid := (lo + hi) / 2
			if s.cdf[mid] >= u {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return s.Xmin + lo
	}
	// Far tail: CCDF(k) ≈ k^{1-α} / ((α-1) ζ(α,xmin)); invert.
	ccdf := 1 - u
	k := math.Pow(ccdf*(s.Alpha-1)*s.zeta, -1/(s.Alpha-1))
	kmin := s.Xmin + n
	if k < float64(kmin) {
		return kmin
	}
	return int(k)
}

// PowerLawInt is a convenience wrapper that builds a throwaway sampler.
// Hot paths should construct a PowerLawSampler once and reuse it.
func PowerLawInt(rng *rand.Rand, alpha float64, xmin int) int {
	return NewPowerLawSampler(alpha, xmin).Sample(rng)
}

// ExpMean samples an exponential variate with the given mean.  The
// paper's sleep-time distribution only constrains the mean (m_s/d_out);
// we use the exponential as the maximum-entropy choice.
func ExpMean(rng *rand.Rand, mean float64) float64 {
	return mean * rng.ExpFloat64()
}

// HurwitzZeta computes ζ(s, q) = Σ_{k=0}^∞ (k+q)^{-s} for s > 1,
// q > 0, by direct summation plus an Euler–Maclaurin tail.  It is the
// normalizing constant of the discrete power law with minimum q.
func HurwitzZeta(s, q float64) float64 {
	if s <= 1 {
		return math.Inf(1)
	}
	const n = 32
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += math.Pow(float64(k)+q, -s)
	}
	a := float64(n) + q
	// Euler–Maclaurin correction terms.
	sum += math.Pow(a, 1-s) / (s - 1)
	sum += 0.5 * math.Pow(a, -s)
	sum += s * math.Pow(a, -s-1) / 12
	sum -= s * (s + 1) * (s + 2) * math.Pow(a, -s-3) / 720
	return sum
}

// lognormalZ computes the normalizing constant
// Z(μ,σ) = Σ_{k=1}^∞ (1/k) exp(-(ln k - μ)²/(2σ²))
// of the discrete lognormal (DGX) distribution.  It sums exactly up to
// a cutoff and adds the integral tail, which is available in closed
// form after the substitution y = ln x.
func lognormalZ(mu, sigma float64) float64 {
	if sigma <= 0 {
		return math.NaN()
	}
	kmax := int(math.Exp(mu + 6*sigma))
	if kmax > 200000 {
		kmax = 200000
	}
	if kmax < 64 {
		kmax = 64
	}
	twoSig2 := 2 * sigma * sigma
	sum := 0.0
	for k := 1; k <= kmax; k++ {
		d := math.Log(float64(k)) - mu
		sum += math.Exp(-d*d/twoSig2) / float64(k)
	}
	// Tail: ∫_{kmax+1/2}^∞ (1/x) e^{-(ln x-μ)²/2σ²} dx
	//     = σ√(2π) (1 - Φ((ln(kmax+1/2)-μ)/σ)).
	z := (math.Log(float64(kmax)+0.5) - mu) / sigma
	sum += sigma * math.Sqrt(2*math.Pi) * (1 - NormalCDF(z))
	return sum
}

// LognormalLogPMF returns ln p(k) of the discrete lognormal with the
// given parameters, for k >= 1.  It recomputes Z(μ,σ) on every call;
// evaluate many points through LognormalLogPMFFunc.
func LognormalLogPMF(k int, mu, sigma float64) float64 {
	return LognormalLogPMFFunc(mu, sigma)(k)
}

// LognormalLogPMFFunc returns k ↦ ln p(k) of the discrete lognormal,
// with the normalizer Z(μ,σ) computed once up front.
func LognormalLogPMFFunc(mu, sigma float64) func(k int) float64 {
	logZ := math.Log(lognormalZ(mu, sigma))
	return func(k int) float64 {
		if k < 1 {
			return math.Inf(-1)
		}
		d := math.Log(float64(k)) - mu
		return -d*d/(2*sigma*sigma) - math.Log(float64(k)) - logZ
	}
}

// PowerLawLogPMF returns ln p(k) of the discrete power law
// p(k) = k^{-α} / ζ(α, xmin) for k >= xmin.  It recomputes ζ on every
// call; evaluate many points through PowerLawLogPMFFunc.
func PowerLawLogPMF(k int, alpha float64, xmin int) float64 {
	return PowerLawLogPMFFunc(alpha, xmin)(k)
}

// PowerLawLogPMFFunc returns k ↦ ln p(k) of the discrete power law,
// with the normalizer ζ(α, xmin) computed once up front.
func PowerLawLogPMFFunc(alpha float64, xmin int) func(k int) float64 {
	logZeta := math.Log(HurwitzZeta(alpha, float64(xmin)))
	return func(k int) float64 {
		if k < xmin {
			return math.Inf(-1)
		}
		return -alpha*math.Log(float64(k)) - logZeta
	}
}
