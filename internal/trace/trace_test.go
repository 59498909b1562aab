package trace

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/traffic"
)

func TestFGNValidation(t *testing.T) {
	r := rng.New(1, 0)
	if _, err := fgn(0, 0.8, r); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := fgn(100, 0, r); err == nil {
		t.Error("h=0 should fail")
	}
	if _, err := fgn(100, 1, r); err == nil {
		t.Error("h=1 should fail")
	}
}

func TestFGNWhiteNoiseCase(t *testing.T) {
	r := rng.New(2, 0)
	x, err := fgn(4096, 0.5, r)
	if err != nil {
		t.Fatal(err)
	}
	var m stats.Moments
	for _, v := range x {
		m.Add(v)
	}
	if math.Abs(m.Mean()) > 0.06 || math.Abs(m.Var()-1) > 0.08 {
		t.Errorf("H=0.5 moments: mean %v var %v", m.Mean(), m.Var())
	}
}

func TestFGNMomentsAndHurst(t *testing.T) {
	for _, h := range []float64{0.6, 0.8, 0.9} {
		// The sample second moment of an LRD series fluctuates slowly, so
		// average over independent replications; likewise for the Hurst
		// estimate.
		var second, hurst float64
		const reps = 8
		for rep := 0; rep < reps; rep++ {
			r := rng.New(42+uint64(rep), uint64(h*100))
			x, err := fgn(1<<15, h, r)
			if err != nil {
				t.Fatal(err)
			}
			var s float64
			for _, v := range x {
				s += v * v
			}
			second += s / float64(len(x))
			hurst += stats.HurstAggVar(x)
		}
		second /= reps
		hurst /= reps
		// Time averages of x^2 over a single LRD path converge at rate
		// ~n^(2H-2) (x^2 is itself long-range dependent), so the tolerance
		// must be generous at H=0.9; exactness of the covariance is tested
		// separately in TestFGNExactCovarianceSmallN.
		if math.Abs(second-1) > 0.15 {
			t.Errorf("H=%v: mean E[x^2] = %v, want ~1", h, second)
		}
		if math.Abs(hurst-h) > 0.08 {
			t.Errorf("H=%v: mean estimated Hurst %v", h, hurst)
		}
	}
}

func TestFGNAutocovariance(t *testing.T) {
	// Empirical lag-1 autocorrelation of fGn is 2^{2H-1} - 1.
	h := 0.8
	r := rng.New(7, 0)
	x, err := fgn(1<<16, h, r)
	if err != nil {
		t.Fatal(err)
	}
	tr := &Trace{Interval: 1, Rates: x} // rates may be negative here; only ACF is used
	acf := tr.ACF(1)
	want := math.Pow(2, 2*h-1) - 1
	if math.Abs(acf[1]-want) > 0.03 {
		t.Errorf("fGn lag-1 ACF = %v, want %v", acf[1], want)
	}
}

func TestFGNExactCovarianceSmallN(t *testing.T) {
	// Davies-Harte is exact in distribution: check E[x_0 x_k] against the
	// fGn autocovariance across many short replications.
	const n, reps = 16, 60000
	h := 0.9
	gamma := func(k float64) float64 {
		return 0.5 * (math.Pow(math.Abs(k+1), 2*h) - 2*math.Pow(math.Abs(k), 2*h) + math.Pow(math.Abs(k-1), 2*h))
	}
	r := rng.New(1, 0)
	var e [3]float64
	lags := [3]int{0, 1, 5}
	for i := 0; i < reps; i++ {
		x, err := fgn(n, h, r)
		if err != nil {
			t.Fatal(err)
		}
		for j, k := range lags {
			e[j] += x[0] * x[k]
		}
	}
	for j, k := range lags {
		got := e[j] / reps
		want := gamma(float64(k))
		if math.Abs(got-want) > 0.02 {
			t.Errorf("lag %d: empirical %v, want %v", k, got, want)
		}
	}
}

func TestFGNDeterministic(t *testing.T) {
	a, _ := fgn(256, 0.75, rng.New(9, 9))
	b, _ := fgn(256, 0.75, rng.New(9, 9))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("FGN not deterministic for fixed seed")
		}
	}
}

func TestSyntheticVideo(t *testing.T) {
	cfg := DefaultVideoConfig()
	cfg.N = 1 << 14
	tr, err := SyntheticVideo(cfg, rng.New(123, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Rates) != cfg.N {
		t.Fatalf("len = %d", len(tr.Rates))
	}
	s := tr.Stats()
	if math.Abs(s.Mean-cfg.Mean) > 1e-9 {
		t.Errorf("mean = %v, want %v (exact after rescale)", s.Mean, cfg.Mean)
	}
	cv := s.StdDev() / s.Mean
	if math.Abs(cv-cfg.CV) > 0.1 {
		t.Errorf("CV = %v, want ~%v", cv, cfg.CV)
	}
	for i, r := range tr.Rates {
		if r < 0 {
			t.Fatalf("negative rate at %d", i)
		}
	}
	// The trace must be long-range dependent.
	if h := tr.Hurst(); h < 0.68 {
		t.Errorf("Hurst = %v, want > 0.68 (LRD)", h)
	}
}

func TestSyntheticVideoValidation(t *testing.T) {
	r := rng.New(1, 0)
	bad := DefaultVideoConfig()
	bad.N = 0
	if _, err := SyntheticVideo(bad, r); err == nil {
		t.Error("N=0 should fail")
	}
	bad = DefaultVideoConfig()
	bad.SceneFrac = 1.0
	if _, err := SyntheticVideo(bad, r); err == nil {
		t.Error("SceneFrac=1 should fail")
	}
}

func TestTraceStatsAndCorrTime(t *testing.T) {
	// An AR(1)-style trace with known correlation structure: RCBR sampled
	// finely. Use exponential ACF exp(-k dt / Tc) approximated by AR(1).
	const n, dt, tc = 1 << 15, 0.1, 2.0
	a := math.Exp(-dt / tc)
	r := rng.New(4, 0)
	rates := make([]float64, n)
	x := 0.0
	for i := range rates {
		x = a*x + math.Sqrt(1-a*a)*r.Normal()
		rates[i] = 5 + x // keep mostly positive; only stats matter here
	}
	tr := &Trace{Interval: dt, Rates: rates}
	s := tr.Stats()
	if math.Abs(s.Mean-5) > 0.15 {
		t.Errorf("mean = %v", s.Mean)
	}
	if math.Abs(s.Variance-1) > 0.15 {
		t.Errorf("var = %v", s.Variance)
	}
	ct := tr.CorrTime()
	if ct < 1.0 || ct > 3.5 {
		t.Errorf("corr time = %v, want ~%v", ct, tc)
	}
}

func TestTraceModelSource(t *testing.T) {
	tr := &Trace{Interval: 2, Rates: []float64{1, 2, 3}}
	m := Model{Trace: tr}
	src := m.New(rng.New(1, 0))
	seen := map[float64]bool{}
	for i := 0; i < 6; i++ {
		seg := src.Next()
		if seg.Duration != 2 {
			t.Fatalf("duration = %v", seg.Duration)
		}
		seen[seg.Rate] = true
	}
	if len(seen) != 3 {
		t.Errorf("cyclic playback should visit all 3 rates, saw %v", seen)
	}
	// Random offsets differ across sources.
	offsets := map[int]bool{}
	base := rng.New(2, 0)
	for i := 0; i < 20; i++ {
		s := m.New(base.Split(uint64(i))).(*traceSource)
		offsets[s.pos] = true
	}
	if len(offsets) < 2 {
		t.Error("sources should start at varied offsets")
	}
}

func TestTraceModelImplementsTrafficModel(t *testing.T) {
	var _ traffic.Model = Model{Trace: &Trace{Interval: 1, Rates: []float64{1}}}
}

func BenchmarkFGN32k(b *testing.B) {
	r := rng.New(1, 1)
	for i := 0; i < b.N; i++ {
		if _, err := fgn(1<<15, 0.8, r); err != nil {
			b.Fatal(err)
		}
	}
}
