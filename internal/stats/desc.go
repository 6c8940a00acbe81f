package stats

import (
	"math"
	"sort"
)

// MeanStd returns the sample mean and (population) standard deviation.
func MeanStd(xs []float64) (mean, std float64) {
	n := float64(len(xs))
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean = sum / n
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / n)
}

// Percentile returns the q-th percentile (0 <= q <= 100) of the data
// with linear interpolation between order statistics, matching the
// "possibly with some interpolation" effective-diameter definition.
// The input need not be sorted.
func Percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, q)
}

func percentileSorted(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// PercentilesInt returns the requested percentiles of integer data,
// used by the per-attribute degree boxplots of Figure 14.
func PercentilesInt(data []int, qs ...float64) []float64 {
	xs := make([]float64, len(data))
	for i, k := range data {
		xs[i] = float64(k)
	}
	sort.Float64s(xs)
	out := make([]float64, len(qs))
	for i, q := range qs {
		if len(xs) == 0 {
			out[i] = math.NaN()
			continue
		}
		out[i] = percentileSorted(xs, q)
	}
	return out
}

// Pearson returns the Pearson correlation coefficient of the paired
// samples, or 0 when either side has zero variance.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) == 0 {
		return 0
	}
	mx, sx := MeanStd(xs)
	my, sy := MeanStd(ys)
	if sx < 1e-12 || sy < 1e-12 {
		return 0
	}
	var cov float64
	for i := range xs {
		cov += (xs[i] - mx) * (ys[i] - my)
	}
	cov /= float64(len(xs))
	return cov / (sx * sy)
}

// PMFPoint is one point of an empirical probability mass function.
type PMFPoint struct {
	K int     // value (e.g. degree)
	P float64 // empirical probability
}

// PMF returns the empirical PMF of the data over values >= 1, sorted
// by value.  Zero values are excluded, matching the log-log degree
// plots in the paper.
func PMF(data []int) []PMFPoint {
	counts, n := tally(data)
	if n == 0 {
		return nil
	}
	out := make([]PMFPoint, len(counts))
	for i, vc := range counts {
		out[i] = PMFPoint{K: vc.k, P: float64(vc.c) / float64(n)}
	}
	return out
}

// CCDFPoint is one point of an empirical complementary CDF.
type CCDFPoint struct {
	K int
	P float64 // P(X >= K)
}

// CCDF returns the empirical complementary CDF P(X >= k) at every
// distinct value k >= 1 in the data.
func CCDF(data []int) []CCDFPoint {
	counts, n := tally(data)
	if n == 0 {
		return nil
	}
	out := make([]CCDFPoint, len(counts))
	remaining := n
	for i, vc := range counts {
		out[i] = CCDFPoint{K: vc.k, P: float64(remaining) / float64(n)}
		remaining -= vc.c
	}
	return out
}

// LogBinPoint is a point of a logarithmically binned curve: the
// geometric bin center and the average of the y-values that fell in it.
type LogBinPoint struct {
	X float64
	Y float64
	N int // number of raw points aggregated
}

// LogBinAverage bins positive xs into bins of the given logarithmic
// width factor (e.g. 2 doubles the bin edge each time) and averages the
// corresponding ys, yielding smoothed log-log curves such as knn and
// clustering-vs-degree (Figures 7a, 9, 12a, 17).
func LogBinAverage(xs, ys []float64, factor float64) []LogBinPoint {
	if factor <= 1 {
		factor = 2
	}
	type agg struct {
		sum float64
		n   int
	}
	bins := make(map[int]*agg)
	for i, x := range xs {
		if x < 1 {
			continue
		}
		b := int(math.Floor(math.Log(x) / math.Log(factor)))
		a := bins[b]
		if a == nil {
			a = &agg{}
			bins[b] = a
		}
		a.sum += ys[i]
		a.n++
	}
	keys := make([]int, 0, len(bins))
	for b := range bins {
		keys = append(keys, b)
	}
	sort.Ints(keys)
	out := make([]LogBinPoint, 0, len(keys))
	for _, b := range keys {
		lo := math.Pow(factor, float64(b))
		hi := math.Pow(factor, float64(b+1))
		center := math.Sqrt(lo * hi)
		a := bins[b]
		out = append(out, LogBinPoint{X: center, Y: a.sum / float64(a.n), N: a.n})
	}
	return out
}

// LogMoments returns the mean and standard deviation of ln(k) over
// data values >= 1: the continuous-MLE lognormal parameters tracked in
// Figures 6 and 11a.
//
// The moments are accumulated in canonical order — distinct values
// ascending, each weighted by its multiplicity — so that LogMomentsHist
// computes bitwise-identical results from an incrementally maintained
// histogram of the same sample.
func LogMoments(data []int) (mu, sigma float64) {
	counts, _ := tally(data)
	return logMomentsTable(counts)
}

// LogMomentsHist is LogMoments over a value histogram: hist[k] holds
// the number of observations with value k (index 0, if present, is
// ignored like values below 1).  It returns exactly the values
// LogMoments returns on the equivalent flat sample, which is what lets
// the experiments layer fold per-day degree moments from delta-updated
// histograms instead of re-extracting every degree.
func LogMomentsHist(hist []int) (mu, sigma float64) {
	return logMomentsTable(tallyHist(hist, 1))
}

// logMomentsTable computes the log-moments over a value table.  Both
// entry points share it so their floating-point operation sequences
// are identical.
func logMomentsTable(counts []valueCount) (mu, sigma float64) {
	n := 0
	sum := 0.0
	for _, vc := range counts {
		n += vc.c
		sum += float64(vc.c) * math.Log(float64(vc.k))
	}
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	mu = sum / float64(n)
	var ss float64
	for _, vc := range counts {
		d := math.Log(float64(vc.k)) - mu
		ss += float64(vc.c) * d * d
	}
	return mu, math.Sqrt(ss / float64(n))
}

// valueCount is one distinct value of a sample and its multiplicity.
type valueCount struct{ k, c int }

// tally returns the value table of data, its distinct values >= 1 in
// ascending order each with its multiplicity, and the number n of
// observations >= 1.  Every sum over a sample in this package that
// must be bitwise-reproducible runs over such a table, in this order.
func tally(data []int) (counts []valueCount, n int) {
	sorted := make([]int, 0, len(data))
	for _, k := range data {
		if k >= 1 {
			sorted = append(sorted, k)
		}
	}
	sort.Ints(sorted)
	for _, k := range sorted {
		if last := len(counts) - 1; last >= 0 && counts[last].k == k {
			counts[last].c++
		} else {
			counts = append(counts, valueCount{k, 1})
		}
	}
	return counts, len(sorted)
}

// tallyHist returns the value table of a histogram (hist[k]
// observations of value k) over the values k >= from, from >= 1.
func tallyHist(hist []int, from int) []valueCount {
	var counts []valueCount
	for k := from; k < len(hist); k++ {
		if hist[k] > 0 {
			counts = append(counts, valueCount{k, hist[k]})
		}
	}
	return counts
}
