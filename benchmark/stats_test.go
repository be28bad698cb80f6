package main

import (
	"math"
	"testing"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {5, 50}, {20, 50}, {40, 75}, {100, 90}, {200, 95}, {999, 100 * 989.0 / 999}, {1000, 99}, {18000, 99},
	} {
		if got := tailPercentile(c.n); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// The reported tail of 1..n really has ten samples beyond it.
	for _, n := range []int{25, 60, 200, 999, 1000, 5000} {
		s := make([]uint64, n)
		for i := range s {
			s[i] = uint64(n - i) // unsorted on purpose
		}
		l := percentiles(s)
		beyond := n - int(l.Tail)
		if l.Samples != n || beyond < tailSamplesBeyond {
			t.Errorf("n=%d: tail %v (p%.1f) has %d samples beyond it", n, l.Tail, l.TailPct, beyond)
		}
		if n < 1000 && beyond != tailSamplesBeyond {
			t.Errorf("n=%d: tail p%.1f leaves %d beyond, want exactly %d (the highest such percentile)", n, l.TailPct, beyond, tailSamplesBeyond)
		}
		if want := float64((n + 1) / 2); l.P50 != want {
			t.Errorf("n=%d: p50 = %v, want %v", n, l.P50, want)
		}
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11], n=4) == [1.5, 4.0, 9.0]
	s := summarize([]float64{11, 1, 7, 2, 4})
	if s.N != 5 || s.Q1 != 1.5 || s.Median != 4 || s.Q3 != 9 {
		t.Errorf("summarize = %+v, want q1 1.5, median 4, q3 9, n 5", s)
	}
	if got := s.spread(); got != (9-1.5)/4 {
		t.Errorf("spread = %v", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	var v []float64
	for i := 1; i <= 10; i++ {
		v = append(v, float64(i))
	}
	if s := summarize(v); s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 {
		t.Errorf("summarize(1..10) = %+v", s)
	}
	if s := summarize([]float64{3}); s.Median != 3 || s.Q1 != 3 || s.Q3 != 3 {
		t.Errorf("summarize of one sample = %+v", s)
	}
	if g := geomean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean(2, 8) = %v", g)
	}
}
