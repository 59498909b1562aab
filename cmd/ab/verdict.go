package main

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// minPairs is the fewest pairs a verdict resolves on.
const minPairs = 10

// Outcomes of one workload × metric comparison.
const (
	resolvedBetter = "resolved better"
	resolvedWorse  = "resolved worse"
	notResolved    = "not resolved"
)

// Outcomes of one workload × metric's median against its bound.
const (
	withinBound = "within bound"
	pastBound   = "past bound"
	spreadWide  = "unresolved: spread wider than bound"
)

// spread is a sample's median and quartiles.
type spread struct{ median, q1, q3 float64 }

func (s spread) iqr() float64 { return s.q3 - s.q1 }

// spreadOf returns the median and quartiles of xs, interpolating linearly
// between order statistics (R's and NumPy's default quantile).
func spreadOf(xs []float64) spread {
	s := slices.Clone(xs)
	slices.Sort(s)
	q := func(p float64) float64 {
		if len(s) == 0 {
			return math.NaN()
		}
		h := p * float64(len(s)-1)
		i := int(h)
		if i+1 >= len(s) {
			return s[i]
		}
		return s[i] + (h-float64(i))*(s[i+1]-s[i])
	}
	return spread{median: q(0.5), q1: q(0.25), q3: q(0.75)}
}

// verdict is one workload × metric over alternating pairs.
type verdict struct {
	parent, change spread
	ahead, behind  int // pairs the change won and lost; ties count for neither
	pairs          int
	outcome        string
}

// judge compares pair i's parent[i] with change[i]. The change resolves
// better when it wins at least nine tenths of at least minPairs pairs and
// the medians are further apart, its way, than the parent's interquartile
// range; worse by the same rule the other way; otherwise not resolved.
func judge(parent, change []float64, higherBetter bool) verdict {
	v := verdict{parent: spreadOf(parent), change: spreadOf(change), pairs: len(parent)}
	sign := 1.0
	if !higherBetter {
		sign = -1
	}
	for i := range parent {
		switch d := sign * (change[i] - parent[i]); {
		case d > 0:
			v.ahead++
		case d < 0:
			v.behind++
		}
	}
	gain := sign * (v.change.median - v.parent.median)
	v.outcome = notResolved
	switch {
	case v.pairs < minPairs:
	case 10*v.ahead >= 9*v.pairs && gain > v.parent.iqr():
		v.outcome = resolvedBetter
	case 10*v.behind >= 9*v.pairs && -gain > v.parent.iqr():
		v.outcome = resolvedWorse
	}
	return v
}

// metric is one end-to-end metric as BENCHMARK.json declares it.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// worsening is the change's median relative to the parent's, signed so
// that positive is worse.
func worsening(parent, change float64, higherBetter bool) float64 {
	w := (change - parent) / parent
	if higherBetter {
		return -w
	}
	return w
}

// bounded holds the change's median against the metric's bound: worse by
// more than the bound is past bound, otherwise within bound. When the
// parent's IQR is itself wider than the bound, relative to its median, the
// medians cannot place the change on either side of it, and the outcome is
// unresolved — unless every change run beats every parent run.
func bounded(parent, change []float64, m metric) string {
	higher := m.Better == "higher"
	p, c := spreadOf(parent), spreadOf(change)
	allAhead := slices.Max(change) < slices.Min(parent)
	if higher {
		allAhead = slices.Min(change) > slices.Max(parent)
	}
	switch {
	case p.iqr() > m.Bound*math.Abs(p.median) && !allAhead:
		return spreadWide
	case worsening(p.median, c.median, higher) > m.Bound:
		return pastBound
	}
	return withinBound
}

// line is the one-line report of a workload × metric: every pair as
// parent/change, both spreads, the score, the medians' gap against the
// parent's IQR, the verdict, and the median's worsening against the bound
// with its outcome.
func line(workload string, m metric, parent, change []float64) string {
	higher := m.Better == "higher"
	v := judge(parent, change, higher)
	pairs := make([]string, len(parent))
	for i := range parent {
		pairs[i] = num(parent[i]) + "/" + num(change[i])
	}
	return fmt.Sprintf("%s %s (%s, %s is better): %s — parent median %s (q1 %s, q3 %s, IQR %s), "+
		"change median %s (q1 %s, q3 %s), change ahead %d of %d, medians %s apart vs parent IQR %s: %s; "+
		"worse by %+.1f %% (bound %.0f %%, parent IQR %.0f %% of its median): %s",
		workload, m.Name, m.Unit, m.Better, strings.Join(pairs, ", "),
		num(v.parent.median), num(v.parent.q1), num(v.parent.q3), num(v.parent.iqr()),
		num(v.change.median), num(v.change.q1), num(v.change.q3), v.ahead, v.pairs,
		num(math.Abs(v.change.median-v.parent.median)), num(v.parent.iqr()), v.outcome,
		100*worsening(v.parent.median, v.change.median, higher), 100*m.Bound, 100*v.parent.iqr()/math.Abs(v.parent.median),
		bounded(parent, change, m))
}

// num prints a value to four significant digits, whole numbers from 1000 up.
func num(x float64) string {
	if math.Abs(x) >= 1000 {
		return fmt.Sprintf("%.0f", x)
	}
	return fmt.Sprintf("%.4g", x)
}
