package traffic

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
)

// sampleModel draws time-weighted statistics from a source over many
// segments and returns (mean, variance).
func sampleModel(m Model, seed uint64, segments int) (mean, variance float64) {
	src := m.New(rng.New(seed, 0))
	var tw stats.TimeWeighted
	var tw2 stats.TimeWeighted
	for i := 0; i < segments; i++ {
		seg := src.Next()
		tw.Observe(seg.Rate, seg.Duration)
		tw2.Observe(seg.Rate*seg.Rate, seg.Duration)
	}
	mean = tw.Mean()
	return mean, tw2.Mean() - mean*mean
}

func TestRCBRStats(t *testing.T) {
	m := NewRCBR(1.0, 0.3, 2.0)
	s := m.Stats()
	// Truncation at 0 is negligible for sigma/mu=0.3.
	if math.Abs(s.Mean-1) > 1e-3 {
		t.Errorf("RCBR mean = %v, want ~1", s.Mean)
	}
	if math.Abs(s.StdDev()-0.3) > 1e-3 {
		t.Errorf("RCBR sigma = %v, want ~0.3", s.StdDev())
	}
	if s.CorrTime != 2.0 {
		t.Errorf("CorrTime = %v", s.CorrTime)
	}
}

func TestRCBREmpiricalMatchesStats(t *testing.T) {
	m := NewRCBR(2.0, 0.3, 1.5)
	want := m.Stats()
	mean, variance := sampleModel(m, 42, 200000)
	if math.Abs(mean-want.Mean)/want.Mean > 0.01 {
		t.Errorf("empirical mean %v vs stats %v", mean, want.Mean)
	}
	if math.Abs(variance-want.Variance)/want.Variance > 0.05 {
		t.Errorf("empirical var %v vs stats %v", variance, want.Variance)
	}
}

func TestRCBRSegmentDurations(t *testing.T) {
	m := NewRCBR(1, 0.3, 3.0)
	src := m.New(rng.New(7, 0))
	var mom stats.Moments
	for i := 0; i < 100000; i++ {
		seg := src.Next()
		if seg.Duration <= 0 {
			t.Fatal("non-positive segment duration")
		}
		if seg.Rate < 0 {
			t.Fatal("negative rate")
		}
		mom.Add(seg.Duration)
	}
	if math.Abs(mom.Mean()-3)/3 > 0.02 {
		t.Errorf("mean segment duration %v, want 3", mom.Mean())
	}
}

func TestRCBRHeavyTruncation(t *testing.T) {
	// sigma/mu = 2 truncates heavily; Stats must reflect the conditioned
	// moments, and samples must respect them.
	m := RCBR{Mean: 1, Sigma: 2, CorrTime: 1}
	want := m.Stats()
	if want.Mean <= 1 {
		t.Errorf("truncated mean should exceed raw mean, got %v", want.Mean)
	}
	mean, variance := sampleModel(m, 1, 300000)
	if math.Abs(mean-want.Mean)/want.Mean > 0.02 {
		t.Errorf("empirical mean %v vs stats %v", mean, want.Mean)
	}
	if math.Abs(variance-want.Variance)/want.Variance > 0.05 {
		t.Errorf("empirical var %v vs stats %v", variance, want.Variance)
	}
}

func TestOnOffStats(t *testing.T) {
	m := OnOff{PeakRate: 10, OnTime: 1, OffTime: 3}
	s := m.Stats()
	if math.Abs(s.Mean-2.5) > 1e-12 { // pOn = 1/4
		t.Errorf("on-off mean = %v, want 2.5", s.Mean)
	}
	wantVar := 0.25 * 0.75 * 100
	if math.Abs(s.Variance-wantVar) > 1e-9 {
		t.Errorf("on-off var = %v, want %v", s.Variance, wantVar)
	}
	if s.Peak != 10 {
		t.Errorf("peak = %v", s.Peak)
	}
	if math.Abs(s.CorrTime-0.75) > 1e-12 {
		t.Errorf("corr time = %v, want 0.75", s.CorrTime)
	}
}

func TestOnOffEmpirical(t *testing.T) {
	m := OnOff{PeakRate: 5, OnTime: 2, OffTime: 2}
	want := m.Stats()
	mean, variance := sampleModel(m, 3, 200000)
	if math.Abs(mean-want.Mean)/want.Mean > 0.02 {
		t.Errorf("empirical mean %v vs %v", mean, want.Mean)
	}
	if math.Abs(variance-want.Variance)/want.Variance > 0.05 {
		t.Errorf("empirical var %v vs %v", variance, want.Variance)
	}
}

func TestOnOffAlternates(t *testing.T) {
	m := OnOff{PeakRate: 1, OnTime: 1, OffTime: 1}
	src := m.New(rng.New(5, 0))
	prev := src.Next().Rate
	for i := 0; i < 100; i++ {
		cur := src.Next().Rate
		if cur == prev {
			t.Fatal("on-off must alternate")
		}
		prev = cur
	}
}

func TestMarkovFluidValidation(t *testing.T) {
	if _, err := NewMarkovFluid(nil, nil); err == nil {
		t.Error("empty chain should fail")
	}
	if _, err := NewMarkovFluid([]float64{1, 2}, [][]float64{{-1, 1}}); err == nil {
		t.Error("wrong row count should fail")
	}
	if _, err := NewMarkovFluid([]float64{1, 2}, [][]float64{{-1, 1}, {2, -1}}); err == nil {
		t.Error("row not summing to zero should fail")
	}
	if _, err := NewMarkovFluid([]float64{1, 2}, [][]float64{{-1, 1}, {0, 0}}); err == nil {
		t.Error("absorbing state should fail")
	}
	if _, err := NewMarkovFluid([]float64{1, 2}, [][]float64{{-1, -1}, {1, -1}}); err == nil {
		t.Error("negative off-diagonal should fail")
	}
}

func TestMarkovFluidStationary(t *testing.T) {
	// Two-state chain: 0 -> 1 at rate 1, 1 -> 0 at rate 3; pi = (3/4, 1/4).
	m, err := NewMarkovFluid([]float64{0, 8}, [][]float64{{-1, 1}, {3, -3}})
	if err != nil {
		t.Fatal(err)
	}
	pi := m.pi
	if math.Abs(pi[0]-0.75) > 1e-12 || math.Abs(pi[1]-0.25) > 1e-12 {
		t.Errorf("pi = %v, want [0.75 0.25]", pi)
	}
	s := m.Stats()
	if math.Abs(s.Mean-2) > 1e-12 {
		t.Errorf("mean = %v, want 2", s.Mean)
	}
	wantVar := 0.25*64 - 4 // E[X^2] - mean^2 = 16 - 4
	if math.Abs(s.Variance-wantVar) > 1e-9 {
		t.Errorf("var = %v, want %v", s.Variance, wantVar)
	}
}

func TestMarkovFluidEquivalentToOnOff(t *testing.T) {
	// A two-state fluid with rates {0, P} is an on-off source; stationary
	// stats must agree.
	onoff := OnOff{PeakRate: 10, OnTime: 1, OffTime: 3}
	mmf, err := NewMarkovFluid([]float64{0, 10}, [][]float64{{-1.0 / 3, 1.0 / 3}, {1, -1}})
	if err != nil {
		t.Fatal(err)
	}
	a, b := onoff.Stats(), mmf.Stats()
	if math.Abs(a.Mean-b.Mean) > 1e-9 || math.Abs(a.Variance-b.Variance) > 1e-9 {
		t.Errorf("on-off %+v vs MMF %+v", a, b)
	}
}

func TestMarkovFluidEmpirical(t *testing.T) {
	// Three-state birth-death chain.
	m, err := NewMarkovFluid(
		[]float64{1, 2, 4},
		[][]float64{
			{-2, 2, 0},
			{1, -3, 2},
			{0, 2, -2},
		})
	if err != nil {
		t.Fatal(err)
	}
	want := m.Stats()
	mean, variance := sampleModel(m, 11, 300000)
	if math.Abs(mean-want.Mean)/want.Mean > 0.02 {
		t.Errorf("empirical mean %v vs %v", mean, want.Mean)
	}
	if math.Abs(variance-want.Variance)/want.Variance > 0.06 {
		t.Errorf("empirical var %v vs %v", variance, want.Variance)
	}
}

func TestConstantModel(t *testing.T) {
	m := Constant{Rate: 7}
	s := m.Stats()
	if s.Mean != 7 || s.Variance != 0 || s.Peak != 7 {
		t.Errorf("constant stats %+v", s)
	}
	src := m.New(nil)
	seg := src.Next()
	if seg.Rate != 7 || seg.Duration <= 0 {
		t.Errorf("constant segment %+v", seg)
	}
}

func TestModelIndependenceAcrossStreams(t *testing.T) {
	m := NewRCBR(1, 0.3, 1)
	base := rng.New(42, 0)
	a := m.New(base.Split(1))
	b := m.New(base.Split(2))
	var cov, va, vb float64
	const n = 50000
	for i := 0; i < n; i++ {
		x := a.Next().Rate - 1
		y := b.Next().Rate - 1
		cov += x * y
		va += x * x
		vb += y * y
	}
	corr := cov / math.Sqrt(va*vb)
	if math.Abs(corr) > 0.02 {
		t.Errorf("flows from split streams correlated: r = %v", corr)
	}
}

func BenchmarkRCBRNext(b *testing.B) {
	src := NewRCBR(1, 0.3, 1).New(rng.New(1, 1))
	for i := 0; i < b.N; i++ {
		src.Next()
	}
}

func BenchmarkMarkovNext(b *testing.B) {
	m, _ := NewMarkovFluid([]float64{0, 1, 2}, [][]float64{{-1, 1, 0}, {1, -2, 1}, {0, 1, -1}})
	src := m.New(rng.New(1, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Next()
	}
}
