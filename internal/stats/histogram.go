// Package stats provides the measurement machinery for experiments:
// a log-linear latency histogram with bounded relative error (the same idea
// as HdrHistogram), latency recorders, throughput accounting, and the
// summary rows printed by the figure harness.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// subBucketBits controls histogram precision. Values below 2^subBucketBits
// ns are recorded exactly; larger values fall into log-linear buckets with a
// worst-case relative error of 2^-(subBucketBits-1) (≈1.6% at 7 bits), which
// is far below the run-to-run noise of a queueing simulation.
const subBucketBits = 7

const subBuckets = 1 << subBucketBits

// halfRow is the number of buckets per power-of-two row above the exact
// range: each row covers [2^(e+subBucketBits-1), 2^(e+subBucketBits)) with
// subBuckets/2 linear buckets.
const halfRow = subBuckets / 2

// maxRows bounds recordable values at roughly subBuckets<<maxRows ns
// (≈2.4 hours with 36 rows), far beyond any simulated latency.
const maxRows = 36

const numBuckets = subBuckets + maxRows*halfRow

// Histogram counts durations with bounded relative error. The zero value is
// ready to use. Histogram is not safe for concurrent use; the simulator is
// single-threaded and live mode shards per goroutine then merges.
type Histogram struct {
	counts [numBuckets]int64
	total  int64
	sum    float64
	min    int64
	max    int64
}

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	if v < subBuckets {
		return int(v)
	}
	// exp ≥ 1; shifting v right by exp lands in [halfRow, subBuckets).
	exp := bits.Len64(uint64(v)) - subBucketBits
	sub := int(v >> uint(exp)) // in [halfRow, subBuckets)
	idx := subBuckets + (exp-1)*halfRow + (sub - halfRow)
	if idx >= numBuckets {
		idx = numBuckets - 1
	}
	return idx
}

// bucketUpper returns the largest value mapping into bucket idx, so
// percentile queries report a conservative (upper-bound) latency.
func bucketUpper(idx int) int64 {
	if idx < subBuckets {
		return int64(idx)
	}
	off := idx - subBuckets
	exp := off/halfRow + 1
	sub := int64(off%halfRow + halfRow)
	return (sub+1)<<uint(exp) - 1
}

// Record adds one observation. Negative durations count as zero; absurdly
// large values are clamped to the top bucket.
func (h *Histogram) Record(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)]++
	h.total++
	h.sum += float64(v)
	if h.total == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 { return h.total }

// Mean returns the mean of recorded observations (0 if empty).
func (h *Histogram) Mean() time.Duration {
	if h.total == 0 {
		return 0
	}
	return time.Duration(h.sum / float64(h.total))
}

// Min returns the smallest recorded observation (0 if empty).
func (h *Histogram) Min() time.Duration { return time.Duration(h.min) }

// Max returns the largest recorded observation (0 if empty).
func (h *Histogram) Max() time.Duration { return time.Duration(h.max) }

// Quantile returns an upper bound for the q-quantile (q in [0,1]) with the
// histogram's relative error. Quantile(1) returns the exact maximum.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return time.Duration(h.min)
	}
	if q >= 1 {
		return time.Duration(h.max)
	}
	rank := int64(math.Ceil(q * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := range h.counts {
		seen += h.counts[i]
		if seen >= rank {
			if i == numBuckets-1 {
				// Overflow bucket: its nominal upper bound is meaningless.
				return time.Duration(h.max)
			}
			u := bucketUpper(i)
			if u > h.max {
				u = h.max
			}
			return time.Duration(u)
		}
	}
	return time.Duration(h.max)
}

// P50 and P99 are the quantiles the paper plots ("we refer to the 99th
// percentile latency as the tail latency", §4).
func (h *Histogram) P50() time.Duration { return h.Quantile(0.50) }
func (h *Histogram) P99() time.Duration { return h.Quantile(0.99) }

// Merge adds all of o's observations into h.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.total == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.total == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.total += o.total
	h.sum += o.sum
}

// Reset forgets all observations.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total, h.sum, h.min, h.max = 0, 0, 0, 0
}

// String summarizes the distribution for logs.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		h.total, h.Mean(), h.P50(), h.P99(), h.Max())
}
