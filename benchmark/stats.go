package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of v (mean of the two middle values for
// an even count), or NaN for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sorted(v)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartile of v exactly as Python's
// statistics.quantiles(v, n=4) does (the default "exclusive" method), which
// is the rule the acceptance spread is defined by. It needs two values.
func quartiles(v []float64) (q1, q3 float64) {
	if len(v) < 2 {
		return math.NaN(), math.NaN()
	}
	s := sorted(v)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance of v as a share of its median: the
// run-to-run noise figure a metric's bound is judged against.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(median(v))
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of v.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sorted(v)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tailPercentiles are the candidates topPercentile chooses from.
var tailPercentiles = []float64{50, 90, 99, 99.9, 99.99}

// topPercentile returns the highest candidate percentile that still has at
// least ten of the n samples beyond it: p90 at 100 samples, p99 at 1000.
// Below 20 samples only the median qualifies.
func topPercentile(n int) float64 {
	best := tailPercentiles[0]
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 10000 × 0.1 % is ten, not 9.99…
			best = p
		}
	}
	return best
}

// openLoopLatencyMs is an open-loop tuple's latency: from the instant it
// was due to be sent, not the instant the generator got round to sending
// it, so a generator stall is charged to the tuples it delayed.
func openLoopLatencyMs(dueNs, sinkNs int64) float64 {
	return float64(sinkNs-dueNs) / 1e6
}

// latenessMs is how late the generator sent a tuple relative to its due
// time; a generator that is early (it never is — it waits) reads 0.
func latenessMs(dueNs, sentNs int64) float64 {
	if sentNs < dueNs {
		return 0
	}
	return float64(sentNs-dueNs) / 1e6
}

// windowed groups samples by the window their key (ns from phase start)
// falls in and returns one percentile per non-empty window, in window
// order.
func windowed(keysNs []int64, vals []float64, windowNs int64, p float64) []float64 {
	byWin := map[int64][]float64{}
	var maxWin int64
	for i, k := range keysNs {
		w := k / windowNs
		byWin[w] = append(byWin[w], vals[i])
		if w > maxWin {
			maxWin = w
		}
	}
	var out []float64
	for w := int64(0); w <= maxWin; w++ {
		if len(byWin[w]) > 0 {
			out = append(out, percentile(byWin[w], p))
		}
	}
	return out
}
