package stats

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

// The reference implementations below are the per-sample Vuong test
// and the per-xmin power-law scan that the production kernel replaced.
// Each recomputes its normalizer on every log-PMF evaluation and
// regroups the tail into a map for every xmin candidate.  The
// production code must reproduce them to the bit.

func refLognormalLogPMF(k int, mu, sigma float64) float64 {
	if k < 1 {
		return math.Inf(-1)
	}
	d := math.Log(float64(k)) - mu
	return -d*d/(2*sigma*sigma) - math.Log(float64(k)) - math.Log(lognormalZ(mu, sigma))
}

func refPowerLawLogPMF(k int, alpha float64, xmin int) float64 {
	if k < xmin {
		return math.Inf(-1)
	}
	return -alpha*math.Log(float64(k)) - math.Log(HurwitzZeta(alpha, float64(xmin)))
}

func refCompareLognormalPowerLaw(data []int, ln LognormalFit, pl PowerLawFit) (r, p float64) {
	lnTail := 0.0
	if pl.Xmin > 1 {
		head := 0.0
		for k := 1; k < pl.Xmin; k++ {
			head += math.Exp(refLognormalLogPMF(k, ln.Mu, ln.Sigma))
		}
		if head >= 1 {
			return math.Inf(-1), 0
		}
		lnTail = math.Log(1 - head)
	}
	var diffs []float64
	for _, k := range data {
		if k < pl.Xmin {
			continue
		}
		d := (refLognormalLogPMF(k, ln.Mu, ln.Sigma) - lnTail) - refPowerLawLogPMF(k, pl.Alpha, pl.Xmin)
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

func refFitDiscretePowerLaw(data []int, maxXmin int) PowerLawFit {
	clean := make([]int, 0, len(data))
	for _, k := range data {
		if k >= 1 {
			clean = append(clean, k)
		}
	}
	if len(clean) == 0 {
		return PowerLawFit{Alpha: math.NaN()}
	}
	sort.Ints(clean)
	if maxXmin <= 0 {
		maxXmin = clean[len(clean)*9/10]
		if maxXmin > 200 {
			maxXmin = 200
		}
	}
	best := PowerLawFit{KS: math.Inf(1), N: len(clean)}
	var uniq []int
	for i, k := range clean {
		if i == 0 || k != clean[i-1] {
			uniq = append(uniq, k)
		}
	}
	for _, xmin := range uniq {
		if xmin > maxXmin {
			break
		}
		fit := refFitPowerLawAt(clean, xmin)
		if fit.NTail < 10 {
			continue
		}
		if fit.KS < best.KS {
			best = fit
			best.N = len(clean)
		}
	}
	if math.IsInf(best.KS, 1) {
		best = refFitPowerLawAt(clean, uniq[0])
		best.N = len(clean)
	}
	return best
}

func refFitPowerLawAt(sorted []int, xmin int) PowerLawFit {
	tail := sorted[sort.SearchInts(sorted, xmin):]
	n := len(tail)
	sumLogK := 0.0
	counts := make(map[int]int)
	for j := 0; j < n; {
		l := j
		for l < n && tail[l] == tail[j] {
			l++
		}
		sumLogK += float64(l-j) * math.Log(float64(tail[j]))
		counts[tail[j]] = l - j
		j = l
	}
	if n == 0 {
		return PowerLawFit{Alpha: math.NaN(), Xmin: xmin, KS: math.Inf(1)}
	}
	if sumLogK <= 0 {
		return PowerLawFit{Alpha: math.NaN(), Xmin: xmin, KS: math.Inf(1), NTail: n}
	}
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
	keys := make([]int, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	cum := 0
	for _, k := range keys {
		cum += counts[k]
		ecdf := float64(cum) / float64(n)
		if d := math.Abs(ecdf - (1 - HurwitzZeta(alpha, float64(k+1))/zeta)); d > fit.KS {
			fit.KS = d
		}
	}
	return fit
}

// oracleSamples draws the seeded test inputs: lognormal and power-law
// degree samples of mixed sizes.
func oracleSamples(draws int) [][]int {
	rng := rand.New(rand.NewPCG(131, 313))
	sizes := []int{40, 150, 600, 2000}
	out := make([][]int, draws)
	for i := range out {
		n := sizes[i%len(sizes)]
		if i%2 == 0 {
			out[i] = lognormalSample(rng, 0.3+1.2*rng.Float64(), 0.4+0.6*rng.Float64(), n)
		} else {
			out[i] = powerLawSample(rng, 2.2+1.3*rng.Float64(), 1+rng.IntN(3), n)
		}
	}
	return out
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestCompareLognormalPowerLawMatchesOracle(t *testing.T) {
	var xmin1, xminGt1 int
	for i, data := range oracleSamples(40) {
		ln := FitDiscreteLognormal(data)
		for _, pl := range []PowerLawFit{
			FitDiscretePowerLaw(data, 0),
			FitPowerLawFixedXmin(data, 1),
			FitPowerLawFixedXmin(data, 3),
		} {
			if pl.Xmin > 1 {
				xminGt1++
			} else {
				xmin1++
			}
			r, p := CompareLognormalPowerLaw(data, ln, pl)
			wr, wp := refCompareLognormalPowerLaw(data, ln, pl)
			if !sameBits(r, wr) || !sameBits(p, wp) {
				t.Errorf("draw %d (n=%d, xmin=%d): (R, p) = (%v, %v), oracle (%v, %v)",
					i, len(data), pl.Xmin, r, p, wr, wp)
			}
		}
	}
	if xmin1 == 0 || xminGt1 == 0 {
		t.Fatalf("oracle inputs cover xmin=1 %d times and xmin>1 %d times; want both", xmin1, xminGt1)
	}
}

func TestFitDiscretePowerLawMatchesOracle(t *testing.T) {
	same := func(a, b PowerLawFit) bool {
		return sameBits(a.Alpha, b.Alpha) && a.Xmin == b.Xmin && sameBits(a.LogLik, b.LogLik) &&
			sameBits(a.KS, b.KS) && a.NTail == b.NTail && a.N == b.N
	}
	for i, data := range oracleSamples(40) {
		if got, want := FitDiscretePowerLaw(data, 0), refFitDiscretePowerLaw(data, 0); !same(got, want) {
			t.Errorf("draw %d (n=%d): fit %+v, oracle %+v", i, len(data), got, want)
		}
		if got, want := FitDiscretePowerLaw(data, 4), refFitDiscretePowerLaw(data, 4); !same(got, want) {
			t.Errorf("draw %d (n=%d, maxXmin=4): fit %+v, oracle %+v", i, len(data), got, want)
		}
	}
}

func TestLogPMFFuncsMatchPerCallFormulas(t *testing.T) {
	for _, c := range []struct{ mu, sigma float64 }{{1.8, 1.2}, {0.4, 0.5}, {2.5, 0.7}} {
		f := LognormalLogPMFFunc(c.mu, c.sigma)
		for k := 0; k <= 300; k++ {
			if got, want := f(k), refLognormalLogPMF(k, c.mu, c.sigma); !sameBits(got, want) {
				t.Fatalf("lognormal(%v,%v) k=%d: %v, per-call %v", c.mu, c.sigma, k, got, want)
			}
		}
	}
	for _, c := range []struct {
		alpha float64
		xmin  int
	}{{2.05, 1}, {2.7, 3}} {
		f := PowerLawLogPMFFunc(c.alpha, c.xmin)
		for k := 0; k <= 300; k++ {
			if got, want := f(k), refPowerLawLogPMF(k, c.alpha, c.xmin); !sameBits(got, want) {
				t.Fatalf("power law(%v,%d) k=%d: %v, per-call %v", c.alpha, c.xmin, k, got, want)
			}
		}
	}
}

// TestFitDiscreteLognormalDeterministic pins the lognormal fit to one
// bit pattern across calls: the log-likelihood must not depend on any
// iteration order that varies from run to run.
func TestFitDiscreteLognormalDeterministic(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 24))
	data := lognormalSample(rng, 1.8, 1.2, 30000)
	first := FitDiscreteLognormal(data)
	for i := 0; i < 30; i++ {
		fit := FitDiscreteLognormal(data)
		if !sameBits(fit.Mu, first.Mu) || !sameBits(fit.Sigma, first.Sigma) || !sameBits(fit.LogLik, first.LogLik) {
			t.Fatalf("call %d: (mu, sigma, loglik) = (%x, %x, %x), first call (%x, %x, %x)", i,
				math.Float64bits(fit.Mu), math.Float64bits(fit.Sigma), math.Float64bits(fit.LogLik),
				math.Float64bits(first.Mu), math.Float64bits(first.Sigma), math.Float64bits(first.LogLik))
		}
	}
}
