// Package hll implements HyperLogLog cardinality counters and the
// HyperANF algorithm of Boldi, Rosa and Vigna, which the paper uses to
// approximate the effective diameter of the Google+ social graph and
// its attribute analogue (§3.3, §4.1).
package hll

import (
	"math"
	"math/bits"
)

// Counter is a HyperLogLog register set.  The zero value is not usable;
// create counters with NewCounter.
//
// The 2^p one-byte registers are packed eight to a word in
// little-endian byte order: register i is byte i%8 of word i/8.
// HyperANF lays its counters out the same way, back to back in flat
// word matrices, and shares addWords, unionWords and estimateWords with
// Counter.
type Counter struct {
	p     uint8 // log2(number of registers)
	words []uint64
}

// NewCounter returns a HyperLogLog counter with 2^p registers.
// Precision p must be in [4, 16]; the standard error is ~1.04/sqrt(2^p).
func NewCounter(p uint8) *Counter {
	checkPrecision(p)
	return &Counter{p: p, words: make([]uint64, wordsPer(p))}
}

func checkPrecision(p uint8) {
	if p < 4 || p > 16 {
		panic("hll: precision must be in [4, 16]")
	}
}

// wordsPer returns the number of words holding one counter's 2^p
// registers.
func wordsPer(p uint8) int { return 1 << p / 8 }

// splitmix64 is the finalizer of the SplitMix64 generator: a fast,
// high-quality 64-bit mixing function used to hash node IDs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Hash maps an item and seed to a 64-bit hash.  Exposed so tests and
// the HyperANF driver share one hash definition.
func Hash(item uint64, seed uint64) uint64 {
	return splitmix64(item ^ splitmix64(seed))
}

// Add inserts a pre-hashed item into the counter.
func (c *Counter) Add(hash uint64) { addWords(c.words, c.p, hash) }

// Union merges other into c (register-wise max).  It reports whether
// any register changed, which HyperANF uses for convergence detection.
func (c *Counter) Union(other *Counter) bool { return unionWords(c.words, other.words) }

// Clone returns an independent copy.
func (c *Counter) Clone() *Counter {
	return &Counter{p: c.p, words: append([]uint64(nil), c.words...)}
}

// Estimate returns the estimated cardinality, with the standard
// small-range (linear counting) and large-range corrections of
// Flajolet et al.
func (c *Counter) Estimate() float64 { return estimateWords(c.words, c.p) }

// addWords inserts a pre-hashed item into the counter held in ws.
func addWords(ws []uint64, p uint8, hash uint64) {
	idx := hash >> (64 - p)
	rest := hash << p
	// Rank: position of the leftmost 1-bit of the remaining bits, in
	// [1, 64-p+1]; all-zero remainder maps to 64-p+1.
	rank := uint64(bits.LeadingZeros64(rest)) + 1
	if max := uint64(64 - p + 1); rank > max {
		rank = max
	}
	shift := idx % 8 * 8
	if w := ws[idx/8]; rank > w>>shift&0xFF {
		ws[idx/8] = w&^(0xFF<<shift) | rank<<shift
	}
}

// unionWords merges src into dst (register-wise max) and reports
// whether any register of dst changed.
//
// The merge runs eight registers per step (SWAR bytewise max): ranks
// are at most 64-p+1 < 0x80, so adding the per-byte sentinel 0x80 to
// x-y can never borrow across byte lanes, making the high bit of each
// lane an x >= y comparator.  HyperANF spends nearly all of its time
// here.
func unionWords(dst, src []uint64) bool {
	const high = 0x8080808080808080
	const low = 0x0101010101010101
	changed := false
	src = src[:len(dst)]
	for i, x := range dst {
		y := src[i]
		if x == y {
			continue
		}
		ge := ((x | high) - y) & high  // per-lane: x_i >= y_i
		mask := (ge >> 7 & low) * 0xFF // expand comparator bit to full lane
		if max := x&mask | y&^mask; max != x {
			dst[i] = max
			changed = true
		}
	}
	return changed
}

// pow2neg[r] is exactly 2^-r — the same value math.Pow(2, -r) returns
// for these integer exponents (both are exact powers of two), fetched
// without the transcendental-call overhead.  Ranks never exceed
// 64-p+1 <= 61.
var pow2neg = func() [64]float64 {
	var t [64]float64
	for r := range t {
		t[r] = math.Ldexp(1, -r)
	}
	return t
}()

// estimateWords is Counter.Estimate on the counter held in ws.  It sums
// the registers in index order, so equal registers give equal bits.
func estimateWords(ws []uint64, p uint8) float64 {
	m := float64(int(1) << p)
	var sum float64
	zeros := 0
	for _, w := range ws {
		for k := 0; k < 64; k += 8 {
			r := uint8(w >> k)
			sum += pow2neg[r]
			if r == 0 {
				zeros++
			}
		}
	}
	alpha := alphaM(int(1) << p)
	e := alpha * m * m / sum
	if e <= 2.5*m && zeros > 0 {
		// Linear counting for small cardinalities.
		return m * math.Log(m/float64(zeros))
	}
	const two32 = 1 << 32
	if e > two32/30 {
		return -two32 * math.Log(1-e/two32)
	}
	return e
}

func alphaM(m int) float64 {
	switch m {
	case 16:
		return 0.673
	case 32:
		return 0.697
	case 64:
		return 0.709
	default:
		return 0.7213 / (1 + 1.079/float64(m))
	}
}
