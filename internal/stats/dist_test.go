package stats

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestNormalCDF(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.841344746},
		{-1, 0.158655254},
		{1.959963985, 0.975},
		{3, 0.998650102},
	}
	for _, c := range cases {
		if got := NormalCDF(c.x); math.Abs(got-c.want) > 1e-6 {
			t.Errorf("NormalCDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestHazardFunctions(t *testing.T) {
	// g(0) = φ(0)/(1-Φ(0)) = 2φ(0) = sqrt(2/π).
	if got, want := HazardG(0), math.Sqrt(2/math.Pi); math.Abs(got-want) > 1e-9 {
		t.Errorf("HazardG(0) = %v, want %v", got, want)
	}
	// δ(γ) ∈ (0, 1) for all finite γ (variance stays positive).
	for _, g := range []float64{-5, -1, 0, 1, 5, 10} {
		d := HazardDelta(g)
		if d <= 0 || d >= 1 {
			t.Errorf("HazardDelta(%v) = %v, want in (0,1)", g, d)
		}
	}
}

func TestTruncNormalMoments(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	for _, c := range []struct{ mean, std float64 }{
		{5, 2},    // barely truncated
		{0, 1},    // half truncated
		{-3, 1},   // heavily truncated (Robert sampler path)
		{-10, 2},  // extreme truncation
		{2.5, 10}, // wide
	} {
		const n = 200000
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			x := TruncNormal(rng, c.mean, c.std)
			if x < 0 {
				t.Fatalf("TruncNormal(%v,%v) produced negative %v", c.mean, c.std, x)
			}
			sum += x
			sumSq += x * x
		}
		gotMean := sum / n
		gotVar := sumSq/n - gotMean*gotMean
		wantMean := TruncNormalMean(c.mean, c.std)
		wantVar := TruncNormalVar(c.mean, c.std)
		if math.Abs(gotMean-wantMean) > 0.03*math.Max(1, wantMean) {
			t.Errorf("TruncNormal(%v,%v) mean = %v, want %v", c.mean, c.std, gotMean, wantMean)
		}
		if math.Abs(gotVar-wantVar) > 0.08*math.Max(1, wantVar) {
			t.Errorf("TruncNormal(%v,%v) var = %v, want %v", c.mean, c.std, gotVar, wantVar)
		}
	}
}

func TestLognormalIntMoments(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	mu, sigma := 1.5, 0.8
	const n = 100000
	var logs []float64
	for i := 0; i < n; i++ {
		k := LognormalInt(rng, mu, sigma)
		if k < 1 {
			t.Fatalf("LognormalInt produced %d < 1", k)
		}
		logs = append(logs, math.Log(float64(k)))
	}
	m, s := MeanStd(logs)
	// Rounding to integers biases the log moments slightly; allow 5%.
	if math.Abs(m-mu) > 0.05*mu {
		t.Errorf("log mean = %v, want ~%v", m, mu)
	}
	if math.Abs(s-sigma) > 0.08*sigma {
		t.Errorf("log std = %v, want ~%v", s, sigma)
	}
}

func TestPowerLawSamplerTail(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	alpha := 2.5
	s := NewPowerLawSampler(alpha, 1)
	const n = 200000
	count10 := 0
	for i := 0; i < n; i++ {
		k := s.Sample(rng)
		if k < 1 {
			t.Fatalf("Sample produced %d < 1", k)
		}
		if k >= 10 {
			count10++
		}
	}
	// P(X >= 10) = ζ(α,10)/ζ(α,1).
	want := HurwitzZeta(alpha, 10) / HurwitzZeta(alpha, 1)
	got := float64(count10) / n
	if math.Abs(got-want) > 0.05*want {
		t.Errorf("P(X>=10) = %v, want ~%v", got, want)
	}
}

func TestPowerLawSamplerHead(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	alpha, xmin := 2.05, 1
	s := NewPowerLawSampler(alpha, xmin)
	const n = 300000
	counts := map[int]int{}
	for i := 0; i < n; i++ {
		counts[s.Sample(rng)]++
	}
	zeta := HurwitzZeta(alpha, float64(xmin))
	for k := 1; k <= 4; k++ {
		want := math.Pow(float64(k), -alpha) / zeta
		got := float64(counts[k]) / n
		if math.Abs(got-want) > 0.03*want {
			t.Errorf("P(X=%d) = %v, want ~%v", k, got, want)
		}
	}
}

func TestPowerLawIntPanicsOnBadAlpha(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("PowerLawInt(alpha=1) did not panic")
		}
	}()
	rng := rand.New(rand.NewPCG(4, 4))
	PowerLawInt(rng, 1.0, 1)
}

func TestHurwitzZeta(t *testing.T) {
	// ζ(2,1) = π²/6.
	if got, want := HurwitzZeta(2, 1), math.Pi*math.Pi/6; math.Abs(got-want) > 1e-8 {
		t.Errorf("HurwitzZeta(2,1) = %v, want %v", got, want)
	}
	// ζ(3,1) = Apery's constant.
	if got, want := HurwitzZeta(3, 1), 1.2020569031595943; math.Abs(got-want) > 1e-8 {
		t.Errorf("HurwitzZeta(3,1) = %v, want %v", got, want)
	}
	// ζ(s,q) - q^{-s} = ζ(s,q+1).
	if got, want := HurwitzZeta(2.5, 4), HurwitzZeta(2.5, 3)-math.Pow(3, -2.5); math.Abs(got-want) > 1e-9 {
		t.Errorf("Hurwitz recurrence: got %v, want %v", got, want)
	}
}

func TestLogPMFsNormalize(t *testing.T) {
	// Both discrete PMFs must sum to ~1.
	sum := 0.0
	lnPMF := LognormalLogPMFFunc(1.2, 0.9)
	for k := 1; k < 100000; k++ {
		sum += math.Exp(lnPMF(k))
	}
	if math.Abs(sum-1) > 5e-3 {
		t.Errorf("lognormal PMF sums to %v", sum)
	}
	sum = 0
	plPMF := PowerLawLogPMFFunc(2.2, 2)
	for k := 2; k < 200000; k++ {
		sum += math.Exp(plPMF(k))
	}
	if math.Abs(sum-1) > 5e-3 {
		t.Errorf("power-law PMF sums to %v", sum)
	}
	if !math.IsInf(LognormalLogPMF(0, 1, 1), -1) {
		t.Error("LognormalLogPMF(0) should be -Inf")
	}
	if !math.IsInf(PowerLawLogPMF(1, 2.2, 2), -1) {
		t.Error("PowerLawLogPMF below xmin should be -Inf")
	}
}

func TestExpMean(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += ExpMean(rng, 3.5)
	}
	if got := sum / n; math.Abs(got-3.5) > 0.1 {
		t.Errorf("ExpMean mean = %v, want 3.5", got)
	}
}

// Property: truncated-normal theoretical mean is always >= raw mean
// and nonnegative, and increases with the raw mean.
func TestTruncNormalMeanProperties(t *testing.T) {
	f := func(m8 int8, s8 uint8) bool {
		mean := float64(m8) / 8
		std := 0.1 + float64(s8)/32
		tm := TruncNormalMean(mean, std)
		return tm >= mean && tm >= 0 &&
			TruncNormalMean(mean+0.5, std) >= tm-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
