package main

import (
	"math"
	"strings"
	"testing"
)

// TestJudgeRecordedPairs replays two recorded comparisons: cluster-churn
// ops_per_s (M) on seeds 41–50 from the change that sharded replay lanes
// by lock domain, which resolved better, and six served-burst ops_per_s
// (M) pairs from the change before it, which resolve nothing.
func TestJudgeRecordedPairs(t *testing.T) {
	near := func(got, want float64) bool { return math.Abs(got-want) < 6e-4 }

	parent := []float64{2.694, 2.502, 2.386, 2.381, 2.742, 2.706, 2.745, 3.460, 3.780, 2.915}
	change := []float64{3.473, 3.570, 2.743, 2.862, 3.645, 4.193, 3.930, 4.738, 4.554, 4.256}
	v := judge(parent, change, true)
	if !near(v.parent.median, 2.724) || !near(v.change.median, 3.787) || !near(v.parent.iqr(), 0.322) {
		t.Errorf("cluster-churn: medians %g → %g, parent IQR %g; want 2.724 → 3.787, 0.322",
			v.parent.median, v.change.median, v.parent.iqr())
	}
	if v.ahead != 10 || v.pairs != 10 || v.outcome != resolvedBetter {
		t.Errorf("cluster-churn: ahead %d of %d, %s; want 10 of 10, %s", v.ahead, v.pairs, v.outcome, resolvedBetter)
	}

	parent = []float64{2.73, 3.17, 4.66, 2.86, 2.60, 2.60}
	change = []float64{2.40, 2.56, 4.35, 3.09, 2.55, 2.61}
	if v := judge(parent, change, true); v.outcome != notResolved || v.ahead != 2 {
		t.Errorf("served-burst: ahead %d of %d, %s; want 2 of 6, %s", v.ahead, v.pairs, v.outcome, notResolved)
	}
}

// TestJudgeRule holds each clause of the rule: nine of ten pairs, a gap
// wider than the parent's IQR, ten pairs at least, the better direction,
// and ties counting for neither side.
func TestJudgeRule(t *testing.T) {
	parent := []float64{10, 11, 12, 13, 14, 15, 16, 17, 18, 19} // median 14.5, IQR 4.5
	shift := func(d float64, except ...int) []float64 {
		c := make([]float64, len(parent))
		for i, p := range parent {
			c[i] = p + d
		}
		for _, i := range except {
			c[i] = parent[i] // a tie
		}
		return c
	}
	for _, tc := range []struct {
		name   string
		p, c   []float64
		higher bool
		want   string
	}{
		{"ten of ten, wide gap", parent, shift(5), true, resolvedBetter},
		{"same, lower is better", parent, shift(5), false, resolvedWorse},
		{"nine of ten with a tie", parent, shift(5, 0), true, resolvedBetter},
		{"eight of ten", parent, shift(5, 0, 9), true, notResolved},
		{"gap inside the IQR", parent, shift(4), true, notResolved},
		{"nine pairs", parent[:9], shift(5)[:9], true, notResolved},
		{"worse, lower is better", parent, shift(-5), true, resolvedWorse},
	} {
		if got := judge(tc.p, tc.c, tc.higher).outcome; got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestBoundRule holds each outcome of the median against its bound: a
// narrow parent (IQR 4.5 % of its median) places a median worse by 10 %
// within a 25 % bound and one worse by 40 % past it; a parent spread over
// more than the bound leaves the same 10 % unresolved, unless every change
// run beats every parent run.
func TestBoundRule(t *testing.T) {
	narrow := []float64{95, 96, 97, 98, 99, 101, 102, 103, 104, 105} // median 100, IQR 4.5
	wide := []float64{60, 70, 80, 90, 99, 101, 110, 120, 130, 140}   // median 100, IQR 37.5
	scale := func(xs []float64, k float64) []float64 {
		c := make([]float64, len(xs))
		for i, x := range xs {
			c[i] = k * x
		}
		return c
	}
	lower := metric{Name: "op_p99_us", Better: "lower", Bound: 0.25}
	higher := metric{Name: "ops_per_s", Better: "higher", Bound: 0.25}
	for _, tc := range []struct {
		name string
		m    metric
		p, c []float64
		want string
	}{
		{"10 % worse, narrow parent", lower, narrow, scale(narrow, 1.1), withinBound},
		{"40 % worse, narrow parent", lower, narrow, scale(narrow, 1.4), pastBound},
		{"40 % worse, higher is better", higher, narrow, scale(narrow, 0.6), pastBound},
		{"40 % better, higher is better", higher, narrow, scale(narrow, 1.4), withinBound},
		{"10 % worse, wide parent", lower, wide, scale(wide, 1.1), spreadWide},
		{"10 % better, wide parent", lower, wide, scale(wide, 0.9), spreadWide},
		{"every run ahead, wide parent", lower, wide, []float64{50, 51, 52, 53, 54, 55, 56, 57, 58, 59}, withinBound},
	} {
		if got := bounded(tc.p, tc.c, tc.m); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestLine is the report's shape: one line, every pair, the verdict, and
// the bound's outcome last.
func TestLine(t *testing.T) {
	m := metric{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25}
	got := line("cluster-churn", m, []float64{0.6, 0.5}, []float64{0.3, 0.35})
	for _, want := range []string{"cluster-churn setup_s (s, lower is better): 0.6/0.3, 0.5/0.35 — ",
		"change ahead 2 of 2", ": " + notResolved + "; ",
		"worse by -40.9 % (bound 25 %, parent IQR 9 % of its median): " + withinBound} {
		if !strings.Contains(got, want) {
			t.Errorf("line %q lacks %q", got, want)
		}
	}
	if strings.Contains(got, "\n") {
		t.Errorf("line %q is not one line", got)
	}
}

func TestParseSeeds(t *testing.T) {
	got, err := parseSeeds("41-43,7")
	if err != nil || len(got) != 4 || got[0] != 41 || got[2] != 43 || got[3] != 7 {
		t.Errorf("parseSeeds(41-43,7) = %v, %v", got, err)
	}
	for _, bad := range []string{"", "5-3", "x", "1-"} {
		if _, err := parseSeeds(bad); err == nil {
			t.Errorf("parseSeeds(%q) accepted", bad)
		}
	}
}
