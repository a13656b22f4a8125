package main

import (
	"math"
	"sort"
	"time"
)

// dist summarises the samples of one metric: what the result file records and
// what -compare reads back. Value is the number the metric reports.
type dist struct {
	Value  float64 `json:"value"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	// Values keeps the samples themselves when there are few (one per
	// repetition), so a reader can apply another estimator.
	Values []float64 `json:"values,omitempty"`
}

// estimator picks the value a metric reports from its per-repetition
// samples. On a shared host noise mostly adds time, in bursts shorter than a
// second whose density drifts over minutes, so the middle of a run's
// repetitions moves with the host while its quiet end nearly stays put; the
// very fastest repetitions, though, are now and then lucky outliers. Times
// therefore report the mean of their fastest third and rates the mean of
// their highest third (README.md, "Why the quiet third", has the
// measurements); ratios, whose noise is two-sided, report the median.
type estimator int

const (
	estMedian    estimator = iota
	estQuietLow            // mean of the lowest third: durations
	estQuietHigh           // mean of the highest third: rates
)

// summarize returns the quartiles of v and the estimator's pick. The
// quartiles follow Python's statistics.quantiles(v, n=4) (exclusive
// method), the rule the benchmark contract uses for run-to-run spread.
func summarize(est estimator, v []float64) dist {
	if len(v) == 0 {
		return dist{}
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	d := dist{Median: quantile(s, 2), Q1: quantile(s, 1), Q3: quantile(s, 3), N: len(s)}
	third := (len(s) + 2) / 3
	switch est {
	case estQuietLow:
		d.Value = sum(s[:third]) / float64(third)
	case estQuietHigh:
		d.Value = sum(s[len(s)-third:]) / float64(third)
	default:
		d.Value = d.Median
	}
	if len(v) <= 64 {
		d.Values = append([]float64(nil), v...)
	}
	return d
}

// quantile returns the i-th quartile cut point of the sorted slice s.
func quantile(s []float64, i int) float64 {
	n := len(s)
	if n == 1 {
		return s[0]
	}
	m := n + 1
	j := i * m / 4
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	delta := float64(i*m - j*4)
	return (s[j-1]*(4-delta) + s[j]*delta) / 4
}

// spread is the interquartile range as a share of the median.
func (d dist) spread() float64 {
	if d.Median == 0 {
		return 0
	}
	return math.Abs((d.Q3 - d.Q1) / d.Median)
}

func median(v []float64) float64 { return summarize(estMedian, v).Median }

// percentile returns the p-th percentile (0..100) of v by nearest rank.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	if k > len(s)-1 {
		k = len(s) - 1
	}
	return s[k]
}

func lowest(v []float64) float64 { return percentile(v, 0) }

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// in converts durations to floats in the given unit.
func in(unit time.Duration, ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// scaled applies a size factor to a fixed op count, never going below min.
func scaled(n int, size float64, min int) int {
	v := int(math.Round(float64(n) * size))
	if v < min {
		v = min
	}
	return v
}
