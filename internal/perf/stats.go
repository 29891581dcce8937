package perf

import (
	"math/bits"
	"sort"
)

// latHist is a fixed-footprint log-linear histogram of nanosecond durations:
// 64 linear sub-buckets per power of two (relative bucket width <= 1.6 %),
// quantiles interpolated inside the bucket so reported values are not
// quantised to bucket bounds. Recording is allocation-free; a latHist is not
// synchronised — concurrent recorders keep one each and merge at the end.
// (trace.Hist's ~9 % buckets are too coarse to gate a 10 % latency bound.)
type latHist struct {
	n      int64
	sum    int64
	counts [histBuckets]uint32
}

const (
	histSub     = 64
	histMaxBits = 40 // durations are clamped to 2^40 ns (~18 min)
	histBuckets = (histMaxBits - 5) * histSub
)

func histIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v >= 1<<histMaxBits {
		v = 1<<histMaxBits - 1
	}
	if v < histSub {
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - 7
	return shift*histSub + int(v>>shift)
}

// histBounds returns bucket i's inclusive lower bound and its width.
func histBounds(i int) (low, width int64) {
	if i < 2*histSub {
		return int64(i), 1
	}
	shift := i/histSub - 1
	return int64(i%histSub+histSub) << shift, 1 << shift
}

func (h *latHist) record(ns int64) {
	h.n++
	h.sum += ns
	h.counts[histIndex(ns)]++
}

func (h *latHist) merge(o *latHist) {
	h.n += o.n
	h.sum += o.sum
	for i, c := range o.counts {
		h.counts[i] += c
	}
}

// quantile returns the q-quantile (0..1) in nanoseconds, zero when empty.
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= target {
			low, width := histBounds(i)
			return float64(low) + float64(width)*(target-seen)/float64(c)
		}
		seen += float64(c)
	}
	low, width := histBounds(histBuckets - 1)
	return float64(low + width)
}

// median returns the middle of vals (mean of the two middle values for an
// even count), zero when empty. vals is not modified.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of vals as Python's
// statistics.quantiles(vals, n=4) gives them (the exclusive method), which is
// what the repository's benchmark driver computes its spreads with. Fewer
// than two values have no spread: both quartiles equal the single value.
func quartiles(vals []float64) (q1, q3 float64) {
	n := len(vals)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return vals[0], vals[0]
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	at := func(k int) float64 {
		// 1-based position k*(n+1)/4, clamped as statistics.quantiles does
		// (the interpolation weight is taken after clamping).
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
