package rng

import (
	"math"
	"testing"
)

// TestJumpMatchesSteps checks the O(log n) jump-ahead against literally
// stepping the generator: after Jump(n), the next outputs must match a twin
// that consumed n Uint64 draws.
func TestJumpMatchesSteps(t *testing.T) {
	for _, n := range []uint64{0, 1, 2, 3, 7, 64, 1000, 123457} {
		a := New(42, 9)
		b := New(42, 9)
		for i := uint64(0); i < n; i++ {
			a.Uint64()
		}
		b.Jump(n)
		for j := 0; j < 32; j++ {
			if x, y := a.Uint64(), b.Uint64(); x != y {
				t.Fatalf("Jump(%d) diverges from %d steps at draw %d: %x vs %x", n, n, j, x, y)
			}
		}
	}
}

// TestSplitIntoMatchesSplit checks that the allocation-free SplitInto seeds
// exactly the stream Split returns, including after reuse of the
// destination.
func TestSplitIntoMatchesSplit(t *testing.T) {
	a := New(7, 3)
	b := New(7, 3)
	var dst PCG
	dst.Seed(1, 1)
	for tag := uint64(0); tag < 4; tag++ {
		want := a.Split(tag)
		b.SplitInto(tag, &dst)
		for j := 0; j < 16; j++ {
			if x, y := want.Uint64(), dst.Uint64(); x != y {
				t.Fatalf("SplitInto(%d) diverges from Split at draw %d", tag, j)
			}
		}
	}
}

// normalCDF is the reference Φ used by the goodness-of-fit test, computed
// from math.Erfc independently of any sampler in this package.
func normalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// TestZigguratGoodnessOfFit bins 2e6 seeded ziggurat draws over a grid
// spanning the bulk and both tails and performs a chi-squared test against
// bin probabilities from math.Erfc. With 43 degrees of freedom the 99.9th
// percentile of chi-squared is ~76; the test uses 90 to leave headroom while
// still catching any structural error (a wrong table entry or a biased
// wedge/tail path shifts chi-squared by thousands).
func TestZigguratGoodnessOfFit(t *testing.T) {
	const (
		draws = 2_000_000
		lo    = -4.0
		hi    = 4.0
		inner = 42 // interior bins; plus two open tail bins
	)
	edges := make([]float64, inner+1)
	for i := range edges {
		edges[i] = lo + (hi-lo)*float64(i)/float64(inner)
	}
	counts := make([]int64, inner+2)
	p := New(0x7a696767, 1)
	for i := 0; i < draws; i++ {
		x := p.Normal()
		switch {
		case x < lo:
			counts[0]++
		case x >= hi:
			counts[inner+1]++
		default:
			k := int((x - lo) / (hi - lo) * inner)
			if k >= inner { // guard the x == hi-ε rounding edge
				k = inner - 1
			}
			counts[k+1]++
		}
	}
	var chi2 float64
	for k := 0; k < inner+2; k++ {
		var pk float64
		switch k {
		case 0:
			pk = normalCDF(lo)
		case inner + 1:
			pk = 1 - normalCDF(hi)
		default:
			pk = normalCDF(edges[k]) - normalCDF(edges[k-1])
		}
		expect := pk * draws
		d := float64(counts[k]) - expect
		chi2 += d * d / expect
	}
	if chi2 > 90 {
		t.Fatalf("ziggurat chi-squared = %.1f over %d bins, want < 90", chi2, inner+2)
	}
	t.Logf("ziggurat chi-squared = %.1f over %d bins (99.9%% critical ~76)", chi2, inner+2)
}

// normalPolar is the polar (Marsaglia) sampler the ziggurat replaced, kept
// here as an independent implementation to cross-check Normal against.
func normalPolar(p *PCG) float64 {
	for {
		u := 2*p.Float64() - 1
		v := 2*p.Float64() - 1
		if s := u*u + v*v; s < 1 && s != 0 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// TestZigguratMatchesPolarMoments cross-validates the two independent
// normal implementations on their first four moments.
func TestZigguratMatchesPolarMoments(t *testing.T) {
	const n = 500_000
	moments := func(draw func(*PCG) float64, seed uint64) [4]float64 {
		p := New(seed, 11)
		var m [4]float64
		for i := 0; i < n; i++ {
			x := draw(p)
			m[0] += x
			m[1] += x * x
			m[2] += x * x * x
			m[3] += x * x * x * x
		}
		for i := range m {
			m[i] /= n
		}
		return m
	}
	zig := moments((*PCG).Normal, 3)
	pol := moments(normalPolar, 3)
	tol := [4]float64{0.01, 0.02, 0.05, 0.12}
	for i := range zig {
		if math.Abs(zig[i]-pol[i]) > tol[i] {
			t.Errorf("moment %d: ziggurat %v vs polar %v", i+1, zig[i], pol[i])
		}
	}
}

// TestZigguratTables sanity-checks the init-time construction: edges are
// strictly decreasing, boundaries strictly increasing, and each layer
// carries equal area.
func TestZigguratTables(t *testing.T) {
	if zigR < 3.6 || zigR > 3.7 {
		t.Fatalf("tail cut r = %v, want ~3.654", zigR)
	}
	v := zigR*zigF(zigR) + zigTailArea(zigR)
	// Closure: the equal-area recursion must land the top layer's upper
	// boundary exactly on the density's peak. (The rectangle areas sum to
	// MORE than the half-density area sqrt(π/2) — the wedge overhang is
	// discarded by rejection — so closure, not total area, is the invariant.)
	if resid := zigY[zigLayers-1] + v/zigX[zigLayers-1] - 1; math.Abs(resid) > 1e-12 {
		t.Errorf("layer closure residual = %v, want ~0", resid)
	}
	for i := 1; i < zigLayers; i++ {
		if !(zigX[i+1] < zigX[i]) {
			t.Fatalf("zigX not strictly decreasing at %d: %v >= %v", i, zigX[i+1], zigX[i])
		}
		if !(zigY[i] < zigY[i+1]) {
			t.Fatalf("zigY not strictly increasing at %d", i)
		}
		// Rectangle area of layer i.
		if area := zigX[i] * (zigY[i+1] - zigY[i]); math.Abs(area-v) > 1e-9 {
			t.Fatalf("layer %d area %v != v %v", i, area, v)
		}
	}
	if zigX[0] <= zigX[1] {
		t.Fatal("base pseudo-width must exceed r")
	}
}
