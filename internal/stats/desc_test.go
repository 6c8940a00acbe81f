package stats

import (
	"math"
	"sort"
	"testing"
)

func TestMeanStd(t *testing.T) {
	m, s := MeanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if m != 5 {
		t.Errorf("mean = %v, want 5", m)
	}
	if s != 2 {
		t.Errorf("std = %v, want 2", s)
	}
	if m, _ := MeanStd(nil); !math.IsNaN(m) {
		t.Errorf("empty mean = %v, want NaN", m)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct{ q, want float64 }{
		{0, 1}, {100, 10}, {50, 5.5}, {90, 9.1}, {25, 3.25},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := Percentile([]float64{42}, 90); got != 42 {
		t.Errorf("single-element percentile = %v, want 42", got)
	}
}

func TestPercentilesInt(t *testing.T) {
	ps := PercentilesInt([]int{1, 2, 3, 4}, 25, 50, 75)
	want := []float64{1.75, 2.5, 3.25}
	for i := range want {
		if math.Abs(ps[i]-want[i]) > 1e-9 {
			t.Errorf("percentile[%d] = %v, want %v", i, ps[i], want[i])
		}
	}
}

func TestPMFAndCCDF(t *testing.T) {
	data := []int{1, 1, 2, 3, 3, 3, 0, -1} // non-positive values excluded
	pmf := PMF(data)
	wantP := map[int]float64{1: 2.0 / 6, 2: 1.0 / 6, 3: 3.0 / 6}
	if len(pmf) != 3 {
		t.Fatalf("PMF has %d points, want 3", len(pmf))
	}
	total := 0.0
	for _, pt := range pmf {
		if math.Abs(pt.P-wantP[pt.K]) > 1e-12 {
			t.Errorf("PMF[%d] = %v, want %v", pt.K, pt.P, wantP[pt.K])
		}
		total += pt.P
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("PMF sums to %v", total)
	}

	// The PMF's tail sums are the empirical CCDF P(X >= k).
	wantC := map[int]float64{1: 1, 2: 4.0 / 6, 3: 3.0 / 6}
	tail := 0.0
	for i := len(pmf) - 1; i >= 0; i-- {
		tail += pmf[i].P
		if math.Abs(tail-wantC[pmf[i].K]) > 1e-12 {
			t.Errorf("CCDF[%d] = %v, want %v", pmf[i].K, tail, wantC[pmf[i].K])
		}
	}
	if PMF(nil) != nil {
		t.Error("PMF(nil) should be nil")
	}
}

func TestLogBinAverage(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 8, 16, 0.5} // 0.5 dropped (< 1)
	ys := []float64{10, 20, 30, 40, 80, 160, 999}
	pts := LogBinAverage(xs, ys, 2)
	if len(pts) == 0 {
		t.Fatal("no bins produced")
	}
	n := 0
	for _, p := range pts {
		n += p.N
	}
	if n != 6 {
		t.Errorf("aggregated %d points, want 6", n)
	}
	// Bin centers must be strictly increasing.
	if !sort.SliceIsSorted(pts, func(i, j int) bool { return pts[i].X < pts[j].X }) {
		t.Errorf("bin centers not sorted: %+v", pts)
	}
	// The first bin [1,2) holds only x=1 with y=10.
	if pts[0].Y != 10 || pts[0].N != 1 {
		t.Errorf("first bin = %+v, want Y=10 N=1", pts[0])
	}
}

func TestLogMoments(t *testing.T) {
	mu, sigma := LogMoments([]int{1, 1, 1, 1})
	if mu != 0 || sigma != 0 {
		t.Errorf("LogMoments(all ones) = (%v, %v), want (0, 0)", mu, sigma)
	}
	mu, _ = LogMoments([]int{10, 10, 10})
	if math.Abs(mu-math.Log(10)) > 1e-12 {
		t.Errorf("mu = %v, want ln 10", mu)
	}
}
