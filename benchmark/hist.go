package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is the benchmark's own latency histogram (nanoseconds). It is
// log-linear: exact below 256 ns, then 128 linear buckets per power of two
// (bucket width < 0.8 % of the value), so a run's memory is fixed no matter
// how many operations it times and live_heap_mb measures the database, not
// the ruler. Quantiles interpolate inside a bucket by rank, so a reported
// median moves continuously instead of jumping between bucket edges.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
}

const (
	histSub     = 128
	histExact   = 2 * histSub
	histOctaves = 34 // up to 2^42 ns ≈ 73 min
	histBuckets = histExact + histOctaves*histSub
)

func histIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < histExact {
		return int(v)
	}
	o := bits.Len64(uint64(v)) - 8 // v>>o lies in [128, 256)
	if o > histOctaves {
		return histBuckets - 1
	}
	return histExact + (o-1)*histSub + int(v>>uint(o)) - histSub
}

// histBounds returns the lowest value and the width of bucket i.
func histBounds(i int) (lo, width float64) {
	if i < histExact {
		return float64(i), 1
	}
	o := (i-histExact)/histSub + 1
	sub := (i-histExact)%histSub + histSub
	return float64(uint64(sub) << uint(o)), float64(uint64(1) << uint(o))
}

func (h *hist) record(v int64) {
	h.counts[histIndex(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

func (h *hist) reset() { *h = hist{} }

// quantile returns the q-quantile (0 < q < 1) in nanoseconds, 0 when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	cum := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, width := histBounds(i)
			return lo + width*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, width := histBounds(histBuckets - 1)
	return lo + width
}

// tailPercentile is the rule for the tail metric: the 99th percentile when at
// least ten samples lie beyond it, otherwise the highest whole percentile that
// still has ten samples beyond it, and never below the median.
func tailPercentile(n uint64) float64 {
	if n >= 1000 {
		return 99
	}
	if n < 20 {
		return 50
	}
	p := math.Floor(100 * (1 - 10/float64(n)))
	if p < 50 {
		p = 50
	}
	return p
}

// tail returns the tail latency in nanoseconds and the percentile it is.
func (h *hist) tail() (ns float64, pct float64) {
	pct = tailPercentile(h.n)
	return h.quantile(pct / 100), pct
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles mirrors Python's statistics.quantiles(v, n=4) (the exclusive
// method), which is how the acceptance check computes a spread.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}
