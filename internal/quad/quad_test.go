package quad

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSimpsonPolynomial(t *testing.T) {
	// integral of x^3 over [0,2] = 4; Simpson is exact for cubics.
	got := Simpson(func(x float64) float64 { return x * x * x }, 0, 2, 1e-12)
	if math.Abs(got-4) > 1e-10 {
		t.Errorf("Simpson x^3 = %v, want 4", got)
	}
}

func TestSimpsonReversedLimits(t *testing.T) {
	f := func(x float64) float64 { return math.Sin(x) }
	a := Simpson(f, 0, math.Pi, 1e-10)
	b := Simpson(f, math.Pi, 0, 1e-10)
	if math.Abs(a+b) > 1e-9 {
		t.Errorf("reversed limits should negate: %v vs %v", a, b)
	}
	if math.Abs(a-2) > 1e-8 {
		t.Errorf("int sin over [0,pi] = %v, want 2", a)
	}
}

func TestSimpsonGaussian(t *testing.T) {
	// integral of exp(-x^2/2)/sqrt(2pi) over [-8, 8] ~ 1.
	f := func(x float64) float64 { return math.Exp(-0.5*x*x) / math.Sqrt(2*math.Pi) }
	got := Simpson(f, -8, 8, 1e-12)
	if math.Abs(got-1) > 1e-10 {
		t.Errorf("Gaussian mass = %v, want ~1", got)
	}
}

func TestToInfinityExponential(t *testing.T) {
	// integral of exp(-x) over [0, inf) = 1.
	got := ToInfinity(func(x float64) float64 { return math.Exp(-x) }, 0, 1e-10)
	if math.Abs(got-1) > 1e-8 {
		t.Errorf("int exp(-x) = %v, want 1", got)
	}
	// integral of x*exp(-x^2/2) over [a, inf) = exp(-a^2/2).
	a := 1.7
	got = ToInfinity(func(x float64) float64 { return x * math.Exp(-0.5*x*x) }, a, 1e-10)
	want := math.Exp(-0.5 * a * a)
	if math.Abs(got-want) > 1e-8 {
		t.Errorf("Gaussian tail moment = %v, want %v", got, want)
	}
}

func TestBisect(t *testing.T) {
	root, err := Bisect(func(x float64) float64 { return x*x - 2 }, 0, 2, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(root-math.Sqrt2) > 1e-10 {
		t.Errorf("bisect sqrt2 = %v", root)
	}
}

func TestBisectNoBracket(t *testing.T) {
	if _, err := Bisect(func(x float64) float64 { return x*x + 1 }, -1, 1, 1e-9); err != ErrNoBracket {
		t.Errorf("want ErrNoBracket, got %v", err)
	}
}

func TestBrent(t *testing.T) {
	cases := []struct {
		f        func(float64) float64
		a, b, wt float64
	}{
		{func(x float64) float64 { return x*x - 2 }, 0, 2, math.Sqrt2},
		{func(x float64) float64 { return math.Cos(x) }, 1, 2, math.Pi / 2},
		{func(x float64) float64 { return math.Exp(x) - 3 }, 0, 2, math.Log(3)},
	}
	for i, c := range cases {
		root, err := Brent(c.f, c.a, c.b, 1e-13)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if math.Abs(root-c.wt) > 1e-10 {
			t.Errorf("case %d: root=%v want %v", i, root, c.wt)
		}
	}
}

func TestBrentEndpointRoots(t *testing.T) {
	f := func(x float64) float64 { return x }
	if r, err := Brent(f, 0, 1, 1e-12); err != nil || r != 0 {
		t.Errorf("endpoint root a: %v %v", r, err)
	}
	if r, err := Brent(f, -1, 0, 1e-12); err != nil || r != 0 {
		t.Errorf("endpoint root b: %v %v", r, err)
	}
}

func TestBracketDecreasing(t *testing.T) {
	g := func(x float64) float64 { return 1 / x } // strictly decreasing on (0,inf)
	lo, hi, err := BracketDecreasing(g, 0.01, 1, 2, 60)
	if err != nil {
		t.Fatal(err)
	}
	if !(g(lo) >= 0.01 && g(hi) <= 0.01) {
		t.Errorf("bracket [%v,%v] does not straddle target", lo, hi)
	}
	// Target above g(x0): must expand downward.
	lo, hi, err = BracketDecreasing(g, 100, 1, 2, 60)
	if err != nil {
		t.Fatal(err)
	}
	if !(g(lo) >= 100 && g(hi) <= 100) {
		t.Errorf("downward bracket [%v,%v] does not straddle target", lo, hi)
	}
}

func TestBrentAgainstBisectProperty(t *testing.T) {
	f := func(c float64) bool {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return true
		}
		c = math.Mod(math.Abs(c), 5) + 0.1
		g := func(x float64) float64 { return x*x*x - c }
		rb, err1 := Brent(g, 0, 3, 1e-12)
		ri, err2 := Bisect(g, 0, 3, 1e-12)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(rb-ri) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSimpsonGaussianTail(b *testing.B) {
	f := func(x float64) float64 { return math.Exp(-0.5 * x * x) }
	for i := 0; i < b.N; i++ {
		Simpson(f, 0, 10, 1e-10)
	}
}

func BenchmarkToInfinity(b *testing.B) {
	f := func(x float64) float64 { return (1 + x) * math.Exp(-0.5*(1+x)*(1+x)) }
	for i := 0; i < b.N; i++ {
		ToInfinity(f, 0, 1e-9)
	}
}
