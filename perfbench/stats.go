package main

import "sort"

// summary is a sample's median and quartiles. The quartiles follow
// Python's statistics.quantiles(values, n=4) with its default
// "exclusive" method, so the spread printed here is the spread an
// external checker computes from the same values.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(values []float64) summary {
	if len(values) == 0 {
		return summary{}
	}
	q := quartiles(values)
	return summary{Median: median(values), Q1: q[0], Q3: q[2], N: len(values)}
}

func sorted(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

func median(values []float64) float64 {
	s := sorted(values)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of statistics.quantiles(values,
// n=4, method="exclusive"); a single value is returned three times.
func quartiles(values []float64) [3]float64 {
	s := sorted(values)
	ld := len(s)
	var out [3]float64
	if ld == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	m := ld + 1
	for i := 1; i < 4; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out
}
