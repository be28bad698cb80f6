package main

import (
	"math"
	"sort"
)

// summary is how a metric measured once per repeat is reported: the median
// with the quartiles and the sample count beside it.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize aggregates per-repeat values. Quartiles follow Python's
// statistics.quantiles(values, n=4) — the method the acceptance driver
// applies to the per-run values — so a spread printed here is the spread
// the driver will compute.
func summarize(v []float64) summary {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	out := summary{N: len(s)}
	if len(s) == 0 {
		return out
	}
	out.Median = quantile(s, 2)
	out.Q1, out.Q3 = quantile(s, 1), quantile(s, 3)
	return out
}

// quantile returns the k-th quartile cut of sorted s by the exclusive
// method (position k(n+1)/4, linear interpolation, clamped to the ends).
func quantile(s []float64, k int) float64 {
	n := len(s)
	if n == 1 {
		return s[0]
	}
	pos := float64(k) * float64(n+1) / 4
	j := int(pos)
	if j < 1 {
		return s[0]
	}
	if j >= n {
		return s[n-1]
	}
	frac := pos - float64(j)
	return s[j-1] + frac*(s[j]-s[j-1])
}

func median(v []float64) float64 { return summarize(v).Median }

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// tailSamplesBeyond is the least number of samples that must lie beyond a
// reported percentile for it to be more than an anecdote.
const tailSamplesBeyond = 10

// latency is a per-op latency distribution reduced to its median and its
// tail. Tail is the 99th percentile when at least ten samples lie beyond
// it; with fewer samples it is the highest percentile that still has ten
// beyond, and TailPct says which one that was.
type latency struct {
	P50     float64 `json:"p50"`
	Tail    float64 `json:"tail"`
	TailPct float64 `json:"tail_pct"`
	Samples int     `json:"samples"`
}

// tailPercentile picks the percentile to report for n samples: 99 if
// ten samples lie beyond it, else the highest with ten beyond, else 50.
func tailPercentile(n int) float64 {
	if n <= 0 {
		return 0
	}
	p := 100 * float64(n-tailSamplesBeyond) / float64(n)
	return math.Max(50, math.Min(99, p))
}

func percentiles(samples []uint64) latency {
	n := len(samples)
	if n == 0 {
		return latency{}
	}
	s := append([]uint64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	at := func(p float64) float64 {
		// Nearest rank: the smallest sample with at least p% at or below.
		i := int(math.Ceil(p/100*float64(n))) - 1
		if i < 0 {
			i = 0
		}
		return float64(s[i])
	}
	tp := tailPercentile(n)
	return latency{P50: at(50), Tail: at(tp), TailPct: tp, Samples: n}
}

// geomean is the geometric mean of positive values.
func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(v)))
}
