// Package metrics provides the lock-free instrumentation primitives of
// the hwtwbg lock manager: cache-line-friendly atomic counters and
// log₂-bucketed histograms that cost two atomic adds on the hot path
// and never allocate.
//
// The design follows the per-core stats counters of production
// transaction engines (Gray & Reuter's lock-manager accounting;
// ddtxn's per-worker counters): writers touch only their own shard's
// padded metric block, so counting never introduces cross-core cache
// traffic beyond what the protected data structure already pays, and
// readers assemble a consistent-enough snapshot from atomic loads
// without stopping anything.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use. Counters meant to be updated from different cores
// should live in separately allocated (or padded) blocks; see the
// hwtwbg shard metrics for the intended layout.
//
// hwlint:atomics-only — fields may only be touched via their methods.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// NumBuckets is the number of histogram buckets. Bucket 0 counts exact
// zeros; bucket i (1 ≤ i < NumBuckets-1) counts values v with
// 2^(i-1) ≤ v < 2^i; the last bucket is the overflow for everything
// ≥ 2^(NumBuckets-2). With 34 buckets a nanosecond-valued histogram
// spans 1ns to ~4.3s before overflowing — wider than any sane lock
// wait — and a queue-depth histogram wastes only unreachable tail
// buckets.
const NumBuckets = 34

// Histogram is a log₂-bucketed histogram of non-negative integer
// observations (typically nanoseconds or queue depths). Observe is two
// atomic adds and no allocation; the count is the sum of the buckets,
// kept by no counter of its own. The zero value is ready to use.
//
// hwlint:atomics-only — fields may only be touched via their methods.
type Histogram struct {
	sum     atomic.Uint64
	buckets [NumBuckets]atomic.Uint64
}

// bucketIndex maps a value to its bucket.
func bucketIndex(v uint64) int {
	i := bits.Len64(v) // 0 for v == 0, else floor(log2(v)) + 1
	if i >= NumBuckets {
		i = NumBuckets - 1
	}
	return i
}

// BucketUpper returns the inclusive upper bound of bucket i; the last
// bucket is unbounded and returns math.MaxUint64.
func BucketUpper(i int) uint64 {
	if i >= NumBuckets-1 {
		return math.MaxUint64
	}
	return 1<<uint(i) - 1
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.buckets[bucketIndex(v)].Add(1)
	h.sum.Add(v)
}

// Snapshot returns an atomic-read copy of the histogram. Concurrent
// observers may land between the bucket loads, so the snapshot is not a
// point-in-time cut, but every recorded value appears in at most one
// snapshot bucket and counters never run backwards. Count is the sum
// of the buckets loaded, so Count == ΣBuckets holds in every snapshot.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.Sum = h.sum.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
	return s
}

// HistogramSnapshot is a plain-value copy of a Histogram, suitable for
// merging, quantile estimation and exposition.
type HistogramSnapshot struct {
	Count   uint64
	Sum     uint64
	Buckets [NumBuckets]uint64
}

// Merge adds o into s bucket by bucket.
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) {
	s.Count += o.Count
	s.Sum += o.Sum
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
}

// Mean returns the average observed value (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns an upper-bound estimate of the q-quantile (q in
// [0, 1]): the inclusive upper bound of the first bucket at which the
// cumulative count reaches q·Count. Empty histograms return 0.
func (s HistogramSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(s.Count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, b := range s.Buckets {
		cum += b
		if cum >= target {
			return BucketUpper(i)
		}
	}
	return BucketUpper(NumBuckets - 1)
}

// String renders a compact ASCII histogram, one line per non-empty
// bucket, for debug pages and experiment write-ups.
func (s HistogramSnapshot) String() string {
	if s.Count == 0 {
		return "(empty)"
	}
	var max uint64
	for _, b := range s.Buckets {
		if b > max {
			max = b
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "count=%d sum=%d mean=%.1f\n", s.Count, s.Sum, s.Mean())
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		bar := int(n * 40 / max)
		if bar == 0 {
			bar = 1
		}
		var hi string
		if i == NumBuckets-1 {
			hi = "+Inf"
		} else {
			hi = fmt.Sprintf("%d", BucketUpper(i))
		}
		fmt.Fprintf(&b, "  ≤%-12s %8d %s\n", hi, n, strings.Repeat("#", bar))
	}
	return b.String()
}
