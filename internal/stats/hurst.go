package stats

import "math"

// HurstAggVar estimates the Hurst parameter of a time series by the
// aggregated-variance method: for block sizes m the variance of the
// m-aggregated series scales as m^(2H-2). A least-squares fit of
// log Var(X^(m)) against log m over a geometric ladder of block sizes
// yields H. Values H in (0.5, 1) indicate long-range dependence; the
// Starwars MPEG trace analyzed by Garrett & Willinger has H ~ 0.8.
func HurstAggVar(x []float64) float64 {
	n := len(x)
	if n < 32 {
		return math.NaN()
	}
	var logM, logV []float64
	for m := 1; m <= n/8; m *= 2 {
		blocks := n / m
		if blocks < 8 {
			break
		}
		var mom Moments
		for b := 0; b < blocks; b++ {
			var s float64
			for i := b * m; i < (b+1)*m; i++ {
				s += x[i]
			}
			mom.Add(s / float64(m))
		}
		v := mom.Var()
		if v <= 0 {
			continue
		}
		logM = append(logM, math.Log(float64(m)))
		logV = append(logV, math.Log(v))
	}
	if len(logM) < 3 {
		return math.NaN()
	}
	slope := linFitSlope(logM, logV)
	return 1 + slope/2
}

// linFitSlope returns the least-squares slope of y against x.
func linFitSlope(x, y []float64) float64 {
	n := float64(len(x))
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return math.NaN()
	}
	return (n*sxy - sx*sy) / den
}
