package stats

import (
	"math"
	"sort"
)

// LognormalFit holds the fitted parameters of a discrete lognormal
// degree distribution and its goodness-of-fit diagnostics.
type LognormalFit struct {
	Mu, Sigma float64
	LogLik    float64 // total log-likelihood over the data
	KS        float64 // Kolmogorov–Smirnov distance to the empirical CDF
	N         int
}

// PowerLawFit holds the fitted parameters of a discrete power law.
type PowerLawFit struct {
	Alpha  float64
	Xmin   int
	LogLik float64 // log-likelihood over data with k >= Xmin
	KS     float64 // KS distance over the tail k >= Xmin
	NTail  int     // number of observations with k >= Xmin
	N      int
}

// FitDiscreteLognormal fits a discrete lognormal by the moment
// estimator on ln k (the exact continuous-lognormal MLE) followed by a
// local coordinate refinement of the exact discrete log-likelihood.
// Data values < 1 are ignored.
func FitDiscreteLognormal(data []int) LognormalFit {
	var n int
	var sum, sumSq float64
	for _, k := range data {
		if k < 1 {
			continue
		}
		l := math.Log(float64(k))
		sum += l
		sumSq += l * l
		n++
	}
	if n == 0 {
		return LognormalFit{Mu: math.NaN(), Sigma: math.NaN()}
	}
	mu := sum / float64(n)
	varL := sumSq/float64(n) - mu*mu
	if varL < 1e-9 {
		varL = 1e-9
	}
	sigma := math.Sqrt(varL)

	counts, _ := tally(data)
	ll := lognormalLogLik(counts, mu, sigma)

	// Coordinate refinement with shrinking steps.  The discrete MLE
	// differs from the continuous one mainly at small μ/σ.
	stepMu, stepSigma := 0.1, 0.1
	for iter := 0; iter < 40; iter++ {
		improved := false
		for _, cand := range [4][2]float64{
			{mu + stepMu, sigma}, {mu - stepMu, sigma},
			{mu, sigma + stepSigma}, {mu, sigma - stepSigma},
		} {
			if cand[1] <= 1e-3 {
				continue
			}
			if l := lognormalLogLik(counts, cand[0], cand[1]); l > ll {
				mu, sigma, ll = cand[0], cand[1], l
				improved = true
			}
		}
		if !improved {
			stepMu /= 2
			stepSigma /= 2
			if stepMu < 1e-3 {
				break
			}
		}
	}
	fit := LognormalFit{Mu: mu, Sigma: sigma, LogLik: ll, N: n}
	fit.KS = ksDistance(counts, n, func(k int) float64 { return lognormalCDF(k, mu, sigma) })
	return fit
}

// lognormalLogLik sums the discrete-lognormal log-likelihood over the
// value table in ascending value order, so a fit is the same to the bit
// on every run.
func lognormalLogLik(counts []valueCount, mu, sigma float64) float64 {
	logZ := math.Log(lognormalZ(mu, sigma))
	twoSig2 := 2 * sigma * sigma
	ll := 0.0
	for _, vc := range counts {
		lk := math.Log(float64(vc.k))
		d := lk - mu
		ll += float64(vc.c) * (-d*d/twoSig2 - lk - logZ)
	}
	return ll
}

// lognormalCDF evaluates P(X <= k) of the discrete lognormal by the
// continuous approximation on ln(k + 1/2), which is accurate to within
// the half-integer correction for all k >= 1.
func lognormalCDF(k int, mu, sigma float64) float64 {
	if k < 1 {
		return 0
	}
	return NormalCDF((math.Log(float64(k)+0.5) - mu) / sigma)
}

// FitDiscretePowerLaw fits a discrete power law p(k) ∝ k^{-α}, k >=
// xmin, scanning candidate xmin values and selecting the one that
// minimizes the KS distance on the tail — the Clauset–Shalizi–Newman
// procedure.  Set maxXmin <= 0 for an automatic cap.
func FitDiscretePowerLaw(data []int, maxXmin int) PowerLawFit {
	counts, n := tally(data)
	if n == 0 {
		return PowerLawFit{Alpha: math.NaN()}
	}
	if maxXmin <= 0 {
		// Keep at least 10% of the data in the tail: cap xmin at the
		// value of sorted observation n*9/10.
		cum := 0
		for _, vc := range counts {
			cum += vc.c
			if cum > n*9/10 {
				maxXmin = vc.k
				break
			}
		}
		if maxXmin > 200 {
			maxXmin = 200
		}
	}
	// Each candidate xmin is a distinct value; its tail is the suffix
	// of the table from that value on.
	best := PowerLawFit{KS: math.Inf(1), N: n}
	for i, vc := range counts {
		if vc.k > maxXmin {
			break
		}
		fit := fitPowerLawTable(counts[i:], vc.k)
		if fit.NTail < 10 {
			continue
		}
		if fit.KS < best.KS {
			best = fit
			best.N = n
		}
	}
	if math.IsInf(best.KS, 1) {
		best = fitPowerLawTable(counts, counts[0].k)
		best.N = n
	}
	return best
}

// FitPowerLawFixedXmin fits only the exponent, holding xmin fixed.
// The paper's attribute social-degree evolution (Figure 11b) tracks the
// exponent with a stable xmin.
func FitPowerLawFixedXmin(data []int, xmin int) PowerLawFit {
	counts, n := tally(data)
	i := sort.Search(len(counts), func(i int) bool { return counts[i].k >= xmin })
	fit := fitPowerLawTable(counts[i:], xmin)
	fit.N = n
	return fit
}

// FitPowerLawHist is FitPowerLawFixedXmin over a value histogram:
// hist[k] holds the number of observations with value k (values below
// 1 are ignored, as in the flat-sample entry points).  It returns
// exactly the fit FitPowerLawFixedXmin produces on the equivalent flat
// sample, so delta-folded degree tallies answer the same exponent the
// batch extraction does.
func FitPowerLawHist(hist []int, xmin int) PowerLawFit {
	total := 0
	for k := 1; k < len(hist); k++ {
		total += hist[k]
	}
	if xmin < 1 {
		xmin = 1
	}
	fit := fitPowerLawTable(tallyHist(hist, xmin), xmin)
	fit.N = total
	return fit
}

// fitPowerLawTable runs the fixed-xmin discrete MLE over tail, the
// value table of the observations k >= xmin.  It accumulates Σ ln k
// over the distinct values ascending, weighted by multiplicity: the
// canonical order every entry point shares, so histogram-folded fits
// are bitwise-identical to batch fits.
func fitPowerLawTable(tail []valueCount, xmin int) PowerLawFit {
	n := 0
	sumLogK := 0.0
	for _, vc := range tail {
		n += vc.c
		sumLogK += float64(vc.c) * math.Log(float64(vc.k))
	}
	if n == 0 {
		return PowerLawFit{Alpha: math.NaN(), Xmin: xmin, KS: math.Inf(1)}
	}
	if sumLogK <= 0 {
		// Every tail observation equals xmin = 1; no slope information.
		return PowerLawFit{Alpha: math.NaN(), Xmin: xmin, KS: math.Inf(1), NTail: n}
	}
	// Exact discrete MLE: maximize ℓ(α) = -α Σ ln k - n ln ζ(α, xmin)
	// by golden-section search.  (The Clauset–Shalizi–Newman closed form
	// α ≈ 1 + n/Σ ln(k/(xmin-1/2)) is biased for small xmin.)
	logLik := func(alpha float64) float64 {
		return -alpha*sumLogK - float64(n)*math.Log(HurwitzZeta(alpha, float64(xmin)))
	}
	lo, hi := 1.0001, 12.0
	const phi = 0.6180339887498949
	a, b := hi-phi*(hi-lo), lo+phi*(hi-lo)
	fa, fb := logLik(a), logLik(b)
	for hi-lo > 1e-5 {
		if fa > fb {
			hi, b, fb = b, a, fa
			a = hi - phi*(hi-lo)
			fa = logLik(a)
		} else {
			lo, a, fa = a, b, fb
			b = lo + phi*(hi-lo)
			fb = logLik(b)
		}
	}
	alpha := (lo + hi) / 2
	fit := PowerLawFit{Alpha: alpha, Xmin: xmin, NTail: n, LogLik: logLik(alpha)}
	zeta := HurwitzZeta(alpha, float64(xmin))
	fit.KS = ksDistance(tail, n, func(k int) float64 {
		// P(X <= k) = 1 - ζ(α, k+1)/ζ(α, xmin)
		return 1 - HurwitzZeta(alpha, float64(k+1))/zeta
	})
	return fit
}

// CompareLognormalPowerLaw performs a likelihood-ratio comparison
// between the two fitted models on the same data (both evaluated over
// k >= 1 for the lognormal and k >= xmin for the power law; the
// comparison follows the Vuong-style normalized ratio on the common
// support k >= xmin).  A positive R favors the lognormal.  The returned
// p-value is the two-sided normal tail probability: small p means the
// sign of R is significant.
func CompareLognormalPowerLaw(data []int, ln LognormalFit, pl PowerLawFit) (r, p float64) {
	// Condition both models on the common support k >= xmin so the
	// comparison is fair: the lognormal log-PMF is renormalized by its
	// tail mass P(K >= xmin), computed from the discrete PMF itself
	// (mixing in the continuous CDF approximation here can yield
	// conditional probabilities above one for small μ).  Each model's
	// normalizer is computed once; the differences stay in data order,
	// the order MeanStd sums them in.
	lnPMF := LognormalLogPMFFunc(ln.Mu, ln.Sigma)
	plPMF := PowerLawLogPMFFunc(pl.Alpha, pl.Xmin)
	lnTail := 0.0
	if pl.Xmin > 1 {
		head := 0.0
		for k := 1; k < pl.Xmin; k++ {
			head += math.Exp(lnPMF(k))
		}
		if head >= 1 {
			return math.Inf(-1), 0 // lognormal puts no mass on the tail
		}
		lnTail = math.Log(1 - head)
	}
	var diffs []float64
	for _, k := range data {
		if k < pl.Xmin {
			continue
		}
		d := (lnPMF(k) - lnTail) - plPMF(k)
		diffs = append(diffs, d)
	}
	n := len(diffs)
	if n < 2 {
		return 0, 1
	}
	mean, std := MeanStd(diffs)
	if std < 1e-12 {
		if mean > 0 {
			return math.Inf(1), 0
		} else if mean < 0 {
			return math.Inf(-1), 0
		}
		return 0, 1
	}
	r = mean * float64(n)
	z := mean * math.Sqrt(float64(n)) / std
	p = 2 * (1 - NormalCDF(math.Abs(z)))
	return r, p
}

// BestFit describes which of the two candidate families better models
// a degree sample, mirroring the paper's fitting methodology (§3.5).
type BestFit struct {
	Lognormal LognormalFit
	PowerLaw  PowerLawFit
	R         float64 // likelihood ratio; > 0 favors lognormal
	P         float64 // significance of the sign of R
	Winner    string  // "lognormal", "power-law", or "inconclusive"
}

// SelectModel fits both families and runs the likelihood-ratio test.
func SelectModel(data []int) BestFit {
	ln := FitDiscreteLognormal(data)
	pl := FitDiscretePowerLaw(data, 0)
	r, p := CompareLognormalPowerLaw(data, ln, pl)
	winner := "inconclusive"
	if p < 0.1 {
		if r > 0 {
			winner = "lognormal"
		} else {
			winner = "power-law"
		}
	}
	return BestFit{Lognormal: ln, PowerLaw: pl, R: r, P: p, Winner: winner}
}

// ksDistance computes the KS statistic between the empirical CDF of
// the value table (n observations total) and the model CDF.
func ksDistance(counts []valueCount, n int, cdf func(int) float64) float64 {
	if n == 0 {
		return math.Inf(1)
	}
	// For discrete distributions the KS statistic is the maximum over
	// support points of |ECDF(k) - CDF(k)|; there is no "just below"
	// comparison as in the continuous case.
	cum := 0
	maxD := 0.0
	for _, vc := range counts {
		cum += vc.c
		ecdf := float64(cum) / float64(n)
		if d := math.Abs(ecdf - cdf(vc.k)); d > maxD {
			maxD = d
		}
	}
	return maxD
}
