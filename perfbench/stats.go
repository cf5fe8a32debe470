package main

import (
	"math"
	"slices"
	"time"

	"repro/internal/obs"
)

// quantile returns the q-quantile of xs by the nearest-rank rule on a
// sorted copy (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// histQuantile returns the inclusive upper bound of the power-of-two
// bucket holding the q-quantile of an obs histogram.
func histQuantile(h obs.HistSnapshot, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.Count)))
	var seen uint64
	for b, c := range h.Counts {
		seen += c
		if seen >= rank {
			return float64(obs.UpperBound(b))
		}
	}
	return float64(obs.UpperBound(obs.HistBuckets - 1))
}
