package dist

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestZipfUniformWhenSZero(t *testing.T) {
	z := NewZipfKeys(4, 0)
	r := rand.New(rand.NewPCG(1, 2))
	counts := make([]int, 4)
	const n = 100_000
	for i := 0; i < n; i++ {
		counts[z.Sample(r)]++
	}
	for k, c := range counts {
		frac := float64(c) / n
		if frac < 0.23 || frac > 0.27 {
			t.Fatalf("key %d frequency %v, want ≈0.25", k, frac)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	z := NewZipfKeys(100, 0.99)
	r := rand.New(rand.NewPCG(1, 2))
	counts := make([]int, 100)
	const n = 200_000
	for i := 0; i < n; i++ {
		counts[z.Sample(r)]++
	}
	// Key 0 must dominate: Zipf(0.99) over 100 keys gives key 0 ≈ 19%.
	frac0 := float64(counts[0]) / n
	if frac0 < 0.15 || frac0 > 0.23 {
		t.Fatalf("key 0 frequency = %v, want ≈0.19", frac0)
	}
	if counts[0] <= counts[50] {
		t.Fatal("skew absent: head key not hotter than middle key")
	}
}

func TestZipfBoundsAndValidation(t *testing.T) {
	z := NewZipfKeys(7, 1.2)
	if z.N() != 7 {
		t.Fatalf("N = %d", z.N())
	}
	r := rand.New(rand.NewPCG(5, 6))
	for i := 0; i < 10_000; i++ {
		if k := z.Sample(r); k >= 7 {
			t.Fatalf("sample %d out of range", k)
		}
	}
	for _, f := range []func(){
		func() { NewZipfKeys(0, 1) },
		func() { NewZipfKeys(5, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid zipf did not panic")
				}
			}()
			f()
		}()
	}
}

// plainZipfKey is the search the guide table replaces: the first key whose
// CDF reaches u, by binary search over the whole CDF.
func plainZipfKey(cdf []float64, u float64) uint64 {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return uint64(lo)
}

// TestZipfGuideMatchesPlainSearch: the guided search returns the plain
// search's key for 10⁶ draws and at every CDF entry and guide bucket edge
// (each value, and the floats either side of it below 1).
func TestZipfGuideMatchesPlainSearch(t *testing.T) {
	draws := 1_000_000
	if testing.Short() {
		draws = 100_000
	}
	for _, n := range []int{1, 3, 4096} {
		for _, s := range []float64{0, 0.9, 1.2} {
			z := NewZipfKeys(n, s)
			var us []float64
			edges := append([]float64(nil), z.cdf...)
			m := len(z.guide) - 1
			for j := 0; j < m; j++ {
				edges = append(edges, float64(j)/float64(m))
			}
			for _, e := range edges {
				for _, u := range []float64{math.Nextafter(e, 0), e, math.Nextafter(e, 1)} {
					if u >= 0 && u < 1 {
						us = append(us, u)
					}
				}
			}
			r := rand.New(rand.NewPCG(uint64(n), math.Float64bits(s)))
			for i := 0; i < draws; i++ {
				us = append(us, r.Float64())
			}
			for _, u := range us {
				if got, want := z.key(u), plainZipfKey(z.cdf, u); got != want {
					t.Fatalf("n=%d s=%v u=%v: guided key %d, plain search %d", n, s, u, got, want)
				}
			}
		}
	}
}
