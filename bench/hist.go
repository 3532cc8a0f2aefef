package main

import (
	"math"
	"math/bits"
)

// hist is a fixed-memory histogram of nanosecond durations. Each power
// of two is split into 64 equal sub-buckets, so a bucket is at most
// 1/64 of its lower edge wide and any value is known to within 0.8%.
// Recording is two shifts and an increment and never allocates, which
// is what lets a closed loop record tens of millions of samples inside
// the timed phase. Each caller owns one hist; they are merged afterwards.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
	sum    uint64
	max    uint64
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	// histMaxBits caps the range at 2^42 ns (73 minutes); larger values
	// land in the last bucket.
	histMaxBits = 42
	histBuckets = (histMaxBits - histSubBits + 1) * histSub
)

func bucketOf(v uint64) int {
	if v < histSub {
		return int(v)
	}
	if v >= 1<<histMaxBits {
		return histBuckets - 1
	}
	e := bits.Len64(v) - histSubBits - 1
	return (e+1)<<histSubBits + int(v>>e) - histSub
}

// bucketRange returns the lower edge and width of bucket i.
func bucketRange(i int) (lo, width uint64) {
	if i < histSub {
		return uint64(i), 1
	}
	e := i>>histSubBits - 1
	return uint64(i&(histSub-1)+histSub) << e, 1 << e
}

func (h *hist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	v := uint64(ns)
	h.counts[bucketOf(v)]++
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the nearest-rank q-quantile in nanoseconds,
// interpolated inside the bucket that holds the rank so that two runs
// whose quantiles share a bucket still report different values. With
// fewer than 1/(1-q) samples the rank is the last one and the result is
// the maximum.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if rank >= h.n {
		return float64(h.max)
	}
	var cum uint64
	for i, c := range h.counts {
		if c == 0 || cum+c < rank {
			cum += c
			continue
		}
		lo, width := bucketRange(i)
		v := float64(lo) + float64(width)*(float64(rank-cum)-0.5)/float64(c)
		return math.Min(v, float64(h.max))
	}
	return float64(h.max)
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// tailQuantile is the highest of p99.9, p99, p90 that still has at
// least ten samples beyond it, or 0 when even p90 does not. It is
// printed as a diagnostic next to p99.
func (h *hist) tailQuantile() float64 {
	for _, q := range []float64{0.999, 0.99, 0.9} {
		if float64(h.n)*(1-q) >= 10 {
			return q
		}
	}
	return 0
}
