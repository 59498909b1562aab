package gauss

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	if a == 0 || b == 0 {
		return d < tol
	}
	return d/math.Max(math.Abs(a), math.Abs(b)) < tol
}

func TestPhiKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.3989422804014327},
		{1, 0.24197072451914337},
		{-1, 0.24197072451914337},
		{2, 0.05399096651318806},
		{3.0902323061678132, 0.003367090077063996}, // phi(alpha_q) at p_q=1e-3
	}
	for _, c := range cases {
		if got := Phi(c.x); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Phi(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestQKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.15865525393145705},
		{2, 0.022750131948179195},
		{3, 1.3498980316300945e-3},
		{-1, 0.8413447460685429},
		{6, 9.865876450376946e-10},
	}
	for _, c := range cases {
		if got := Q(c.x); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Q(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestQSymmetry(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 30 {
			return true
		}
		return almostEqual(Q(x)+Q(-x), 1, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQinvRoundTrip(t *testing.T) {
	// Q(Qinv(p)) == p across many orders of magnitude.
	for _, p := range []float64{0.5, 0.2, 0.1, 1e-2, 1e-3, 1e-5, 1e-8, 1e-12, 1e-30, 1 - 1e-3, 0.999} {
		alpha := Qinv(p)
		if got := Q(alpha); !almostEqual(got, p, 1e-10) {
			t.Errorf("Q(Qinv(%g)) = %g (alpha=%g)", p, got, alpha)
		}
	}
}

func TestQinvKnownValues(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{1e-3, 3.090232306167813},
		{1e-5, 4.264890793922602},
		{0.15865525393145705, 1},
	}
	for _, c := range cases {
		if got := Qinv(c.p); !almostEqual(got, c.want, 1e-9) && math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Qinv(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestQinvRoundTripProperty(t *testing.T) {
	f := func(u float64) bool {
		// Map arbitrary float to p in (1e-15, 1-1e-15).
		if math.IsNaN(u) || math.IsInf(u, 0) {
			return true
		}
		p := math.Abs(math.Mod(u, 1))
		if p < 1e-15 || p > 1-1e-15 {
			return true
		}
		return almostEqual(Q(Qinv(p)), p, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQinvMonotone(t *testing.T) {
	prev := math.Inf(1)
	for p := 1e-12; p < 1; p *= 1.7 {
		a := Qinv(p)
		if a >= prev {
			t.Fatalf("Qinv not strictly decreasing at p=%g: %g >= %g", p, a, prev)
		}
		prev = a
	}
}

func TestQinvEdgeCases(t *testing.T) {
	if !math.IsInf(Qinv(0), 1) {
		t.Errorf("Qinv(0) = %v, want +Inf", Qinv(0))
	}
	if !math.IsInf(Qinv(1), -1) {
		t.Errorf("Qinv(1) = %v, want -Inf", Qinv(1))
	}
	if !math.IsNaN(Qinv(-0.1)) || !math.IsNaN(Qinv(1.1)) {
		t.Error("Qinv outside [0,1] should be NaN")
	}
}

func TestQTailApproximation(t *testing.T) {
	// The paper relies on Q(x) ~ phi(x)/x for moderately large x; verify the
	// relative error shrinks with x and is below 10% for x >= 3.
	tail := func(x float64) float64 { return Phi(x) / x }
	for _, x := range []float64{3, 4, 5, 6} {
		rel := math.Abs(tail(x)-Q(x)) / Q(x)
		if rel > 0.12 {
			t.Errorf("phi(%v)/%v relative error %v too large", x, x, rel)
		}
	}
	if r3, r6 := math.Abs(tail(3)/Q(3)-1), math.Abs(tail(6)/Q(6)-1); r6 >= r3 {
		t.Errorf("tail approximation should improve with x: r3=%v r6=%v", r3, r6)
	}
}

func TestSqrtTwoLawExample(t *testing.T) {
	// The paper's flagship example (Section 3.1): with target p_q = 1e-5 the
	// memoryless certainty-equivalent MBAC delivers Q(alpha_q/sqrt(2)) ~ 1.3e-3.
	alpha := Qinv(1e-5)
	pf := Q(alpha / Sqrt2)
	if pf < 1.2e-3 || pf > 1.4e-3 {
		t.Errorf("sqrt-2 law example: got p_f = %v, paper says ~1.3e-3", pf)
	}
}

func BenchmarkQ(b *testing.B) {
	var s float64
	for i := 0; i < b.N; i++ {
		s += Q(float64(i%8) - 4)
	}
	_ = s
}

func BenchmarkQinv(b *testing.B) {
	var s float64
	for i := 0; i < b.N; i++ {
		s += Qinv(1e-6 + float64(i%1000)/1001)
	}
	_ = s
}
