package main

import (
	"math"
	"slices"
	"sort"
)

// summary is how the ledger reports a timing: the median, plus the
// highest percentile that still has at least ten samples beyond it
// (none below 100 samples), plus the sample count.
type summary struct {
	N       int     `json:"n"`
	Min     float64 `json:"min"`
	Median  float64 `json:"median"`
	TailPct float64 `json:"tail_pct,omitempty"`
	Tail    float64 `json:"tail,omitempty"`
}

// tailLadder lists the candidate tail percentiles, ascending, each with
// the share of samples beyond it as 1/beyond (kept as an integer so that
// 10 000 samples have exactly ten beyond p99.9).
var tailLadder = []struct {
	pct    float64
	beyond int
}{{90, 10}, {95, 20}, {99, 100}, {99.9, 1000}, {99.99, 10_000}}

// tailPercentile picks the highest ladder percentile p with at least ten
// of n samples above it, or 0 when even p90 has fewer.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, step := range tailLadder {
		if n/step.beyond >= 10 {
			best = step.pct
		}
	}
	return best
}

// percentile returns the nearest-rank p-th percentile of sorted xs.
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

// median returns the middle of xs (mean of the middle two for even
// counts) without reordering the caller's slice; 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// fastest returns the smallest of xs; 0 for no samples. It is how a
// repeated unit's time is reported: the host's disturbances only ever add
// to a time, for seconds at a stretch (README.md, "The host"), so the
// median of a handful of units flips between the disturbed and the
// undisturbed value from run to run, and the fastest unit does not.
func fastest(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Min(xs)
}

// sustained returns the 90th percentile of a phase's window rates: the
// rate the phase holds in the tenth of its windows the host disturbed
// least. It is to a rate what fastest is to a time, with the margin
// against a single lucky window that twenty and more samples allow.
func sustained(rates []float64) float64 {
	s := append([]float64(nil), rates...)
	sort.Float64s(s)
	return percentile(s, 90)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: len(s), Median: median(s)}
	if len(s) > 0 {
		out.Min = s[0]
	}
	if p := tailPercentile(len(s)); p > 0 {
		out.TailPct, out.Tail = p, percentile(s, p)
	}
	return out
}
