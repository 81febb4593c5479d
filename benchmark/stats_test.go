package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{4, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Errorf("median of nothing is not NaN")
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Errorf("median sorted its argument in place")
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4) prints.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 1, 2, 3, 5, 8, 13, 21, 34}, 1.5, 17},
	} {
		q1, q3 := quartiles(c.in)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSpread(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(v), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(100 - i) // unsorted on purpose: 100 … 1
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 100: 100, 0.5: 1} {
		if got := percentile(v, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
}

// The highest percentile with at least ten samples beyond it.
func TestTopPercentile(t *testing.T) {
	for n, want := range map[int]float64{
		5: 50, 19: 50, 20: 50, 99: 50, 100: 90, 999: 90, 1000: 99, 9999: 99, 10000: 99.9, 100000: 99.99,
	} {
		if got := topPercentile(n); got != want {
			t.Errorf("topPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}

// Open-loop latency runs from the due time, so a generator stall is charged
// to the tuples it delayed; lateness is the stall itself.
func TestOpenLoopLatencyIsFromDueTime(t *testing.T) {
	const due, sent, sink = 1_000_000, 4_000_000, 4_500_000 // ns: sent 3 ms late, 0.5 ms in the pipeline
	if got := openLoopLatencyMs(due, sink); !near(got, 3.5) {
		t.Errorf("latency = %v ms, want 3.5 (from the due time, not the send time)", got)
	}
	if got := latenessMs(due, sent); !near(got, 3) {
		t.Errorf("lateness = %v ms, want 3", got)
	}
	if got := latenessMs(due, due-10); got != 0 {
		t.Errorf("an early send reads %v ms late, want 0", got)
	}
}
