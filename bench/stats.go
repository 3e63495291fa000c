package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples a reported tail percentile must have
// beyond it: fewer and the "tail" is a handful of outliers.
const minBeyond = 10

// percentile returns the p-th percentile (0..100) of sorted by the
// nearest-rank rule, or 0 for no samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tail is a tail-latency reading with the percentile it really is and
// the number of samples it rests on.
type tail struct {
	pct   float64
	value float64
	n     int
}

// tailOf reports want-th percentile of sorted when at least minBeyond
// samples lie beyond it, and otherwise the highest percentile that
// does have minBeyond samples beyond it (never below the median).
func tailOf(sorted []float64, want float64) tail {
	n := len(sorted)
	if n == 0 {
		return tail{}
	}
	pct := want
	if float64(n)*(100-want)/100 < minBeyond {
		pct = 100 * float64(n-minBeyond) / float64(n)
		if pct < 50 {
			pct = 50
		}
	}
	return tail{pct: pct, value: percentile(sorted, pct), n: n}
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// median returns the median of v (0 for none).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// spread is (max-min)/median, the run-to-run disagreement -selfcheck
// holds against a metric's bound.
func spread(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	m := median(s)
	if m == 0 {
		return 0
	}
	return (s[len(s)-1] - s[0]) / math.Abs(m)
}

func nsToUS(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	return out
}
