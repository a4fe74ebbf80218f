package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// percentile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// tailPermille are the candidate tail percentiles in thousandths,
// highest first. Integers keep the "samples beyond" test exact.
var tailPermille = []int{999, 990, 950, 900, 750, 500}

// highestTail returns the highest candidate percentile, as a fraction,
// that has at least minBeyond of n samples beyond it, or false when even
// the median has too few.
func highestTail(n int) (float64, bool) {
	for _, q := range tailPermille {
		if hasTail(n, q) {
			return float64(q) / 1000, true
		}
	}
	return 0, false
}

// hasTail reports whether n samples put at least minBeyond beyond the
// q-quantile, q given in thousandths.
func hasTail(n, permille int) bool { return n*(1000-permille) >= minBeyond*1000 }
