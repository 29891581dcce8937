package trace

import (
	"math"
	"sort"
	"time"
)

// Hist bucket geometry: 8 buckets per octave (≈9% relative resolution) from
// 1µs up to ~18 minutes, plus an underflow bucket. A histogram is a fixed
// 2KB value — Add is O(log buckets) with no allocation, so per-goroutine
// histograms can be kept on saturation hot paths and merged afterwards.
const (
	histBucketsPerOctave = 8
	histOctaves          = 30
	histBuckets          = histOctaves*histBucketsPerOctave + 1
)

// histBounds[i] is the inclusive upper bound of bucket i; filled by init
// with the geometric series 1µs · 2^(i/8).
var histBounds [histBuckets]time.Duration

func init() {
	for i := range histBounds {
		us := math.Pow(2, float64(i)/histBucketsPerOctave)
		histBounds[i] = time.Duration(math.Ceil(us * float64(time.Microsecond)))
	}
}

// Hist is a mergeable latency histogram with logarithmic buckets: constant
// memory regardless of sample count, percentiles within the bucket
// resolution (≈9%), exact count/sum/min/max. The zero value is ready to
// use and cheap to merge across goroutines.
//
// Hist is not synchronized: concurrent recorders keep one each and Merge
// them when done.
type Hist struct {
	count   int64
	sum     time.Duration
	min     time.Duration
	max     time.Duration
	buckets [histBuckets]int64
}

// Add records one sample.
func (h *Hist) Add(d time.Duration) {
	if d < 0 {
		d = 0
	}
	if h.count == 0 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.count++
	h.sum += d
	h.buckets[bucketOf(d)]++
}

// bucketOf returns the index of the first bucket whose upper bound holds d.
func bucketOf(d time.Duration) int {
	i := sort.Search(histBuckets, func(i int) bool { return histBounds[i] >= d })
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// Merge accumulates o's samples into h.
func (h *Hist) Merge(o *Hist) {
	if o.count == 0 {
		return
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
}

// Len returns the number of samples recorded.
func (h *Hist) Len() int { return int(h.count) }

// Median returns the 50th percentile; zero when empty.
func (h *Hist) Median() time.Duration { return h.Percentile(50) }

// Percentile returns the p-th percentile (0..100) by nearest rank at the
// histogram's bucket resolution: the upper bound of the bucket holding the
// rank, clamped to the exact observed min and max.
func (h *Hist) Percentile(p float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	rank := int64(math.Ceil(p / 100 * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.buckets {
		seen += c
		if seen >= rank {
			v := histBounds[i]
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Mean returns the average sample; zero when empty.
func (h *Hist) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Min returns the smallest sample; zero when empty.
func (h *Hist) Min() time.Duration { return h.min }

// Max returns the largest sample.
func (h *Hist) Max() time.Duration { return h.max }

// Sum returns the total of all samples.
func (h *Hist) Sum() time.Duration { return h.sum }

// Buckets calls fn once per non-empty bucket in ascending bound order, with
// the bucket's inclusive upper bound and its (non-cumulative) count. It is
// the export hook for encoders (promtext) that need the geometry without
// reaching into the fixed array.
func (h *Hist) Buckets(fn func(upper time.Duration, count int64)) {
	for i, c := range h.buckets {
		if c != 0 {
			fn(histBounds[i], c)
		}
	}
}
