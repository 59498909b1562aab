package traffic

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
)

func TestRCBRACF(t *testing.T) {
	acf := NewRCBR(1, 0.3, 2).ACF()
	for _, tt := range []float64{0, 0.5, 2, 10} {
		want := math.Exp(-tt / 2)
		if math.Abs(acf(tt)-want) > 1e-15 {
			t.Errorf("rho(%v) = %v, want %v", tt, acf(tt), want)
		}
	}
	if acf(-2) != acf(2) {
		t.Error("ACF must be even")
	}
}

func TestOnOffACFMatchesTwoStateFluid(t *testing.T) {
	// The on-off source is a two-state Markov fluid; the matrix-exponential
	// ACF must coincide with the closed form exp(-t(1/on+1/off)).
	onoff := OnOff{PeakRate: 5, OnTime: 1, OffTime: 3}
	mmf, err := NewMarkovFluid([]float64{0, 5}, [][]float64{{-1.0 / 3, 1.0 / 3}, {1, -1}})
	if err != nil {
		t.Fatal(err)
	}
	a, b := onoff.ACF(), mmf.ACF()
	for _, tt := range []float64{0, 0.1, 0.5, 1, 2, 5} {
		if math.Abs(a(tt)-b(tt)) > 1e-9 {
			t.Errorf("t=%v: on-off %v vs fluid %v", tt, a(tt), b(tt))
		}
	}
	if math.Abs(a(0)-1) > 1e-12 {
		t.Errorf("rho(0) = %v", a(0))
	}
}

func TestMarkovFluidACFEmpirical(t *testing.T) {
	// Three-state chain: compare the analytic ACF with the empirical one
	// from a long sampled path.
	m, err := NewMarkovFluid(
		[]float64{0.5, 1, 3},
		[][]float64{
			{-0.8, 0.8, 0},
			{0.4, -1.0, 0.6},
			{0, 1.2, -1.2},
		})
	if err != nil {
		t.Fatal(err)
	}
	acf := m.ACF()

	// Sample the source on a fine grid.
	const dt, steps = 0.05, 400000
	src := m.New(rng.New(4, 0))
	samples := make([]float64, steps)
	var rate, until float64
	for i := range samples {
		for until <= 0 {
			seg := src.Next()
			rate = seg.Rate
			until += seg.Duration
		}
		samples[i] = rate
		until -= dt
	}
	// Empirical rho at a few lags.
	var mom stats.Moments
	for _, v := range samples {
		mom.Add(v)
	}
	mean, variance := mom.Mean(), mom.Var()
	for _, lag := range []int{10, 20, 40} { // t = 0.5, 1, 2
		var cov float64
		n := len(samples) - lag
		for i := 0; i < n; i++ {
			cov += (samples[i] - mean) * (samples[i+lag] - mean)
		}
		cov /= float64(n)
		got := cov / variance
		want := acf(float64(lag) * dt)
		if math.Abs(got-want) > 0.03 {
			t.Errorf("lag %v: empirical rho %v vs analytic %v", float64(lag)*dt, got, want)
		}
	}
}

func TestMarkovFluidACFDerivative(t *testing.T) {
	// rho'(0+) from the formula vs a finite difference of the ACF.
	m, err := NewMarkovFluid(
		[]float64{1, 4},
		[][]float64{{-2, 2}, {1, -1}})
	if err != nil {
		t.Fatal(err)
	}
	acf := m.ACF()
	h := 1e-6
	numeric := (acf(h) - 1) / h
	analytic := m.ACFDerivative0()
	if math.Abs(numeric-analytic) > 1e-4 {
		t.Errorf("rho'(0+): numeric %v vs analytic %v", numeric, analytic)
	}
	// For a two-state chain rho(t) = exp(-(a+b)t), so rho'(0) = -(a+b) = -3.
	if math.Abs(analytic+3) > 1e-9 {
		t.Errorf("two-state derivative %v, want -3", analytic)
	}
}

func TestExpmIdentityAndSemigroup(t *testing.T) {
	q := [][]float64{{-1, 1, 0}, {0.5, -1, 0.5}, {0.2, 0.8, -1}}
	// exp(Q*0) = I.
	e0 := expm(q, 0)
	for i := range e0 {
		for j := range e0[i] {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(e0[i][j]-want) > 1e-12 {
				t.Fatalf("expm(0) not identity at (%d,%d): %v", i, j, e0[i][j])
			}
		}
	}
	// Semigroup: exp(Q·2) == exp(Q·1)·exp(Q·1).
	e1 := expm(q, 1)
	e2 := expm(q, 2)
	prod := matMulScaled(e1, e1, 1)
	for i := range e2 {
		for j := range e2[i] {
			if math.Abs(e2[i][j]-prod[i][j]) > 1e-10 {
				t.Fatalf("semigroup violated at (%d,%d): %v vs %v", i, j, e2[i][j], prod[i][j])
			}
		}
	}
	// Rows of a generator exponential are probability vectors.
	for i, row := range e1 {
		var s float64
		for _, v := range row {
			if v < -1e-12 {
				t.Fatalf("negative transition probability at row %d: %v", i, v)
			}
			s += v
		}
		if math.Abs(s-1) > 1e-10 {
			t.Fatalf("row %d sums to %v", i, s)
		}
	}
}

func BenchmarkMarkovACF(b *testing.B) {
	m, _ := NewMarkovFluid(
		[]float64{0.5, 1, 3},
		[][]float64{{-0.8, 0.8, 0}, {0.4, -1, 0.6}, {0, 1.2, -1.2}})
	acf := m.ACF()
	for i := 0; i < b.N; i++ {
		acf(float64(i%100) / 10)
	}
}
