package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket geometry: bucket i counts observations with
// d <= 2^(histMinShift+i) nanoseconds; the final bucket is the +Inf
// overflow. The first finite bound is ~1µs (2^10 ns) and the last
// ~137s (2^37 ns) — wide enough for everything from a cache hit to a
// pathological relaxation chain, in 28 fixed buckets so a histogram is
// a flat array of atomics with no allocation on the observe path.
const (
	histMinShift = 10
	histBuckets  = 28
)

// Histogram is a bounded log2-bucket latency histogram. Observations
// are lock-free atomic increments; snapshots read the counters without
// stopping writers (a snapshot is weakly consistent, which is fine for
// monitoring). The zero value is not usable; construct with
// NewHistogram.
type Histogram struct {
	counts [histBuckets + 1]atomic.Uint64
	sum    atomic.Int64 // nanoseconds
	count  atomic.Uint64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketOf returns the index of the smallest bucket whose upper bound
// admits d.
func bucketOf(d time.Duration) int {
	ns := uint64(d)
	if d < 0 {
		ns = 0
	}
	if ns <= 1<<histMinShift {
		return 0
	}
	// ceil(log2(ns)) - histMinShift: Len(ns-1) is the exponent of the
	// smallest power of two >= ns.
	i := bits.Len64(ns-1) - histMinShift
	if i > histBuckets {
		i = histBuckets // +Inf overflow bucket
	}
	return i
}

// BucketBound returns the upper bound of bucket i in nanoseconds; the
// overflow bucket reports a negative bound (render as +Inf).
func BucketBound(i int) int64 {
	if i >= histBuckets {
		return -1
	}
	return 1 << (histMinShift + i)
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.counts[bucketOf(d)].Add(1)
	if d > 0 {
		h.sum.Add(int64(d))
	}
	h.count.Add(1)
}

// HistogramSnapshot is a point-in-time copy of a histogram's counters.
type HistogramSnapshot struct {
	// Counts holds per-bucket (non-cumulative) observation counts; the
	// last entry is the +Inf overflow bucket.
	Counts [histBuckets + 1]uint64
	// Sum is the total observed time; Count the number of observations.
	Sum   time.Duration
	Count uint64
}

// Snapshot copies the histogram's counters.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Sum = time.Duration(h.sum.Load())
	s.Count = h.count.Load()
	return s
}
