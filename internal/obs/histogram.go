package obs

import (
	"sync"
	"time"
)

// bucketBounds are the histogram upper bounds in nanoseconds: powers of
// four from 1µs to ~4.3s. The serving stack spans six decades — a warm
// memo read is ~1µs, a cold ingest tens of milliseconds, a pathological
// cold cluster sweep can reach seconds — so exponential buckets keep
// the resolution roughly constant in relative error (±2×) across the
// whole range with only a dozen counters per histogram.
var bucketBounds = [12]int64{
	1_000,         // 1µs
	4_000,         // 4µs
	16_000,        // 16µs
	64_000,        // 64µs
	256_000,       // 256µs
	1_024_000,     // ~1ms
	4_096_000,     // ~4ms
	16_384_000,    // ~16ms
	65_536_000,    // ~66ms
	262_144_000,   // ~262ms
	1_048_576_000, // ~1.05s
	4_294_967_296, // ~4.3s
}

// Histogram is a fixed-bucket latency histogram: counts per bucket plus
// total count and sum, the exact state a Prometheus histogram
// exposition needs. The zero value is ready to use.
type Histogram struct {
	mu     sync.Mutex
	counts [len(bucketBounds) + 1]uint64 // last bucket = +Inf overflow
	count  uint64
	sumNs  int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	i := 0
	for i < len(bucketBounds) && ns > bucketBounds[i] {
		i++
	}
	h.mu.Lock()
	h.counts[i]++
	h.count++
	h.sumNs += ns
	h.mu.Unlock()
}

// Bucket is one cumulative histogram bucket: the count of observations
// at or below the upper bound (Prometheus `le` semantics;
// UpperNs < 0 marks the +Inf overflow bucket).
type Bucket struct {
	UpperNs    int64
	Cumulative uint64
}

// HistogramSnapshot is one point-in-time reading of a Histogram.
type HistogramSnapshot struct {
	Count   uint64
	SumNs   int64
	Buckets []Bucket
}

// Snapshot returns a consistent copy of the histogram state with
// cumulative bucket counts.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	counts := h.counts
	snap := HistogramSnapshot{Count: h.count, SumNs: h.sumNs}
	h.mu.Unlock()
	buckets := make([]Bucket, 0, len(counts))
	var cum uint64
	for i, c := range counts {
		cum += c
		upper := int64(-1)
		if i < len(bucketBounds) {
			upper = bucketBounds[i]
		}
		buckets = append(buckets, Bucket{UpperNs: upper, Cumulative: cum})
	}
	snap.Buckets = buckets
	return snap
}

// QuantileNs estimates the q-quantile (0 < q <= 1) in nanoseconds from
// the cumulative buckets, by linear interpolation inside the bucket the
// quantile falls in — the same estimate Prometheus's histogram_quantile
// computes server-side. The +Inf bucket clamps to the largest finite
// bound, and an empty histogram reports 0.
func (s HistogramSnapshot) QuantileNs(q float64) int64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	for i, b := range s.Buckets {
		if float64(b.Cumulative) < rank {
			continue
		}
		if b.UpperNs < 0 {
			// Overflow bucket: no finite upper bound to interpolate to.
			return bucketBounds[len(bucketBounds)-1]
		}
		var lower int64
		var below uint64
		if i > 0 {
			lower = s.Buckets[i-1].UpperNs
			below = s.Buckets[i-1].Cumulative
		}
		inBucket := b.Cumulative - below
		if inBucket == 0 {
			return b.UpperNs
		}
		frac := (rank - float64(below)) / float64(inBucket)
		return lower + int64(frac*float64(b.UpperNs-lower))
	}
	return s.Buckets[len(s.Buckets)-1].UpperNs
}
