package trace

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestHistZeroValue(t *testing.T) {
	var h Hist
	if h.Len() != 0 || h.Median() != 0 || h.Percentile(99) != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}

func TestHistExactAggregates(t *testing.T) {
	var h Hist
	vals := []time.Duration{3 * time.Millisecond, time.Microsecond, 2 * time.Second, 40 * time.Microsecond}
	var sum time.Duration
	for _, v := range vals {
		h.Add(v)
		sum += v
	}
	if h.Len() != len(vals) {
		t.Fatalf("Len = %d, want %d", h.Len(), len(vals))
	}
	if h.Min() != time.Microsecond || h.Max() != 2*time.Second {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	if h.Sum() != sum || h.Mean() != sum/time.Duration(len(vals)) {
		t.Fatalf("sum/mean = %v/%v", h.Sum(), h.Mean())
	}
	if h.Percentile(0) != h.Min() || h.Percentile(100) != h.Max() {
		t.Fatal("extreme percentiles must be the exact min and max")
	}
}

func TestHistPercentileResolution(t *testing.T) {
	// Percentiles of a log-uniform stream must land within one bucket
	// (≈9% relative error) of the exact sorted-sample percentile.
	rng := rand.New(rand.NewSource(7))
	var h Hist
	var exact []time.Duration
	for i := 0; i < 20_000; i++ {
		d := time.Duration(math.Pow(10, 3+4*rng.Float64())) // 1µs .. 10s in ns
		h.Add(d)
		exact = append(exact, d)
	}
	sort.Slice(exact, func(i, j int) bool { return exact[i] < exact[j] })
	for _, p := range []float64{50, 90, 99, 99.9} {
		got, want := h.Percentile(p), exact[int(p/100*float64(len(exact)))]
		ratio := float64(got) / float64(want)
		if ratio < 0.85 || ratio > 1.15 {
			t.Fatalf("p%v: hist %v vs exact %v (ratio %.3f)", p, got, want, ratio)
		}
	}
}

func TestHistMerge(t *testing.T) {
	var a, b, all Hist
	for i := 1; i <= 100; i++ {
		d := time.Duration(i) * time.Millisecond
		if i%2 == 0 {
			a.Add(d)
		} else {
			b.Add(d)
		}
		all.Add(d)
	}
	var merged Hist
	merged.Merge(&a)
	merged.Merge(&b)
	if merged != all {
		t.Fatal("merge of disjoint halves differs from recording everything into one histogram")
	}
	var empty Hist
	merged.Merge(&empty)
	if merged != all {
		t.Fatal("merging an empty histogram changed the receiver")
	}
}

func TestHistNegativeClamped(t *testing.T) {
	var h Hist
	h.Add(-time.Second)
	if h.Min() != 0 || h.Max() != 0 || h.Len() != 1 {
		t.Fatal("negative sample must clamp to zero")
	}
}

func TestHistBucketsIteration(t *testing.T) {
	var h Hist
	for _, d := range []time.Duration{time.Microsecond, time.Millisecond, time.Millisecond, time.Second} {
		h.Add(d)
	}
	var total int64
	var last time.Duration = -1
	h.Buckets(func(upper time.Duration, count int64) {
		if count <= 0 {
			t.Fatalf("bucket %v reported empty count %d", upper, count)
		}
		if upper <= last {
			t.Fatalf("bucket bounds not ascending: %v after %v", upper, last)
		}
		last = upper
		total += count
	})
	if total != int64(h.Len()) {
		t.Fatalf("bucket counts sum to %d, histogram holds %d", total, h.Len())
	}
}
