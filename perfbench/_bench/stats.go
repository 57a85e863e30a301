package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of an ascending sample by
// linear interpolation between the closest ranks; NaN for an empty one.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// tailLevels are the percentiles a tail may be reported at, highest first.
var tailLevels = []float64{0.999, 0.99, 0.95, 0.90, 0.75}

// minTailBeyond is how many samples must lie beyond a reported tail
// percentile: fewer would make the "tail" one or two unlucky requests.
const minTailBeyond = 10

// tail applies the percentile rule: under 40 samples there is no tail to
// report (ok is false, report the median alone); otherwise it returns the
// highest level of tailLevels that leaves at least ten samples beyond it,
// and the nearest-rank value at that level.
func tail(xs []float64) (level, value float64, ok bool) {
	n := len(xs)
	if n < 4*minTailBeyond {
		return 0, 0, false
	}
	s := sortedCopy(xs)
	for _, l := range tailLevels {
		rank := int(math.Ceil(l * float64(n))) // 1-based nearest rank
		if n-rank >= minTailBeyond {
			return l, s[rank-1], true
		}
	}
	// Unreachable for n ≥ 40: the lowest level leaves n/4 ≥ 10 beyond.
	return 0, 0, false
}

// perRound summarizes a run's rounds: the median over rounds of each
// round's median, and of each round's tail by the percentile rule (ok is
// false when a round has too few samples for a tail). Taking the median
// over rounds keeps a burst of host noise that hits a few rounds from
// moving the run's figures.
func perRound(rounds [][]float64) (p50, tailValue, level float64, ok bool) {
	var meds, tails []float64
	ok = true
	for _, r := range rounds {
		meds = append(meds, median(r))
		l, v, rok := tail(r)
		ok = ok && rok
		level = l
		tails = append(tails, v)
	}
	if !ok {
		return median(meds), 0, 0, false
	}
	return median(meds), median(tails), level, true
}

// chunks cuts xs into consecutive pieces of n.
func chunks(xs []float64, n int) [][]float64 {
	var out [][]float64
	for lo := 0; lo < len(xs); lo += n {
		out = append(out, xs[lo:min(lo+n, len(xs))])
	}
	return out
}
