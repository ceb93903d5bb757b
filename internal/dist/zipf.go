package dist

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
)

// ZipfKeys samples application keys 0..N-1 with a Zipf(s) popularity
// distribution — the skewed key-access pattern that breaks flow-steering
// schedulers like Flow Director (§2.1/§2.2 "load imbalance"). s = 0 is
// uniform; larger s is more skewed (s ≈ 0.99 matches common KVS traces).
type ZipfKeys struct {
	cdf []float64
	s   float64
	// guide[j] is the first key whose CDF reaches j/m, m = len(guide)-1 a
	// power of two, so the key for u in [j/m, (j+1)/m) (u·m is exact) lies
	// in [guide[j], guide[j+1]].
	guide []int32
}

// NewZipfKeys builds the sampler for n keys with skew s >= 0.
func NewZipfKeys(n int, s float64) *ZipfKeys {
	if n <= 0 {
		panic("dist: zipf needs at least one key")
	}
	if s < 0 {
		panic("dist: zipf skew must be non-negative")
	}
	cdf := make([]float64, n)
	acc := 0.0
	for i := 0; i < n; i++ {
		acc += 1 / math.Pow(float64(i+1), s)
		cdf[i] = acc
	}
	for i := range cdf {
		cdf[i] /= acc
	}
	cdf[n-1] = 1
	m := 1 << bits.Len(uint(n))
	guide := make([]int32, m+1)
	for j, k := 0, 0; j <= m; j++ {
		for cdf[k] < float64(j)/float64(m) {
			k++
		}
		guide[j] = int32(k)
	}
	return &ZipfKeys{cdf: cdf, s: s, guide: guide}
}

// N returns the key-space size.
func (z *ZipfKeys) N() int { return len(z.cdf) }

// Skew returns the Zipf exponent s.
func (z *ZipfKeys) Skew() float64 { return z.s }

// String describes the sampler ("zipf:<n>:<s>") — stable across runs, so
// it can participate in experiment cache keys.
func (z *ZipfKeys) String() string { return fmt.Sprintf("zipf:%d:%g", len(z.cdf), z.s) }

// Sample draws a key.
func (z *ZipfKeys) Sample(r *rand.Rand) uint64 { return z.key(r.Float64()) }

// key returns the first key whose CDF reaches u, searching u's guide bucket.
func (z *ZipfKeys) key(u float64) uint64 {
	j := int(u * float64(len(z.guide)-1))
	lo, hi := int(z.guide[j]), int(z.guide[j+1])
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return uint64(lo)
}
