package stats

import (
	"math"
	"math/rand/v2"
	"testing"
)

func lognormalSample(rng *rand.Rand, mu, sigma float64, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = LognormalInt(rng, mu, sigma)
	}
	return out
}

func powerLawSample(rng *rand.Rand, alpha float64, xmin, n int) []int {
	s := NewPowerLawSampler(alpha, xmin)
	out := make([]int, n)
	for i := range out {
		out[i] = s.Sample(rng)
	}
	return out
}

func TestFitDiscreteLognormalRecovers(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 20))
	for _, c := range []struct{ mu, sigma float64 }{
		{1.8, 1.2}, // the paper's outdegree regime (Fig 6a)
		{1.0, 0.8},
		{2.5, 0.5},
	} {
		data := lognormalSample(rng, c.mu, c.sigma, 30000)
		fit := FitDiscreteLognormal(data)
		if math.Abs(fit.Mu-c.mu) > 0.1 {
			t.Errorf("mu = %v, want ~%v", fit.Mu, c.mu)
		}
		if math.Abs(fit.Sigma-c.sigma) > 0.1 {
			t.Errorf("sigma = %v, want ~%v", fit.Sigma, c.sigma)
		}
		if fit.KS > 0.03 {
			t.Errorf("KS = %v for a true lognormal sample (mu=%v sigma=%v)", fit.KS, c.mu, c.sigma)
		}
	}
}

func TestFitDiscretePowerLawRecovers(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 21))
	for _, c := range []struct {
		alpha float64
		xmin  int
	}{
		{2.05, 1}, // the paper's attribute social degree regime (Fig 11b)
		{2.5, 1},
		{3.0, 2},
	} {
		data := powerLawSample(rng, c.alpha, c.xmin, 30000)
		fit := FitDiscretePowerLaw(data, 0)
		if math.Abs(fit.Alpha-c.alpha) > 0.12 {
			t.Errorf("alpha = %v (xmin=%d), want ~%v", fit.Alpha, fit.Xmin, c.alpha)
		}
		if fit.KS > 0.03 {
			t.Errorf("KS = %v for a true power-law sample", fit.KS)
		}
	}
}

func TestSelectModelDiscriminates(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 22))

	ln := lognormalSample(rng, 1.8, 1.2, 20000)
	sel := SelectModel(ln)
	if sel.Winner != "lognormal" {
		t.Errorf("lognormal sample classified as %q (R=%v, p=%v)", sel.Winner, sel.R, sel.P)
	}

	pl := powerLawSample(rng, 2.2, 1, 20000)
	sel = SelectModel(pl)
	if sel.Winner == "lognormal" {
		t.Errorf("power-law sample classified as %q (R=%v, p=%v)", sel.Winner, sel.R, sel.P)
	}
}

func TestFitHandlesDegenerateInput(t *testing.T) {
	if fit := FitDiscreteLognormal(nil); !math.IsNaN(fit.Mu) {
		t.Errorf("empty lognormal fit mu = %v, want NaN", fit.Mu)
	}
	if fit := FitDiscretePowerLaw(nil, 0); !math.IsNaN(fit.Alpha) {
		t.Errorf("empty power-law fit alpha = %v, want NaN", fit.Alpha)
	}
	// All-equal data should not crash and sigma should be tiny.
	same := make([]int, 100)
	for i := range same {
		same[i] = 7
	}
	fit := FitDiscreteLognormal(same)
	if math.Abs(fit.Mu-math.Log(7)) > 0.2 {
		t.Errorf("constant data mu = %v, want ~ln 7 = %v", fit.Mu, math.Log(7))
	}
	// Zeros are ignored, not fatal.
	fit2 := FitDiscreteLognormal([]int{0, 0, 3, 4, 5})
	if fit2.N != 3 {
		t.Errorf("N = %d, want 3 (zeros excluded)", fit2.N)
	}
}

func TestFitPowerLawFixedXmin(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 23))
	data := powerLawSample(rng, 2.4, 1, 20000)
	fit := FitPowerLawFixedXmin(data, 1)
	if fit.Xmin != 1 {
		t.Errorf("Xmin = %d, want 1", fit.Xmin)
	}
	if math.Abs(fit.Alpha-2.4) > 0.1 {
		t.Errorf("alpha = %v, want ~2.4", fit.Alpha)
	}
}

func TestKSDistanceBounds(t *testing.T) {
	counts := []valueCount{{1, 5}, {2, 3}, {3, 2}}
	// Perfect model CDF gives KS ~ 0.
	d := ksDistance(counts, 10, func(k int) float64 {
		switch {
		case k >= 3:
			return 1.0
		case k == 2:
			return 0.8
		case k == 1:
			return 0.5
		}
		return 0
	})
	if d > 1e-12 {
		t.Errorf("KS for exact CDF = %v, want 0", d)
	}
	// Degenerate model far away gives large KS.
	d = ksDistance(counts, 10, func(int) float64 { return 0 })
	if d < 0.99 {
		t.Errorf("KS for null CDF = %v, want ~1", d)
	}
}
