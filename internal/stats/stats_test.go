package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestMomentsBasic(t *testing.T) {
	var m Moments
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		m.Add(x)
	}
	if m.N() != 8 {
		t.Errorf("N = %d", m.N())
	}
	if math.Abs(m.Mean()-5) > 1e-12 {
		t.Errorf("mean = %v, want 5", m.Mean())
	}
	// Unbiased variance of this classic data set is 32/7.
	if math.Abs(m.Var()-32.0/7) > 1e-12 {
		t.Errorf("var = %v, want %v", m.Var(), 32.0/7)
	}
	if m.Min() != 2 || m.Max() != 9 {
		t.Errorf("min/max = %v/%v", m.Min(), m.Max())
	}
}

func TestMomentsEmpty(t *testing.T) {
	var m Moments
	if m.Mean() != 0 || m.Var() != 0 || m.N() != 0 {
		t.Error("empty moments should be zero")
	}
}

func TestMomentsMerge(t *testing.T) {
	f := func(seed uint64) bool {
		p := rng.New(seed, 0)
		var all, a, b Moments
		for i := 0; i < 100; i++ {
			x := p.NormalMS(3, 2)
			all.Add(x)
			if i%2 == 0 {
				a.Add(x)
			} else {
				b.Add(x)
			}
		}
		a.Merge(&b)
		return math.Abs(a.Mean()-all.Mean()) < 1e-10 &&
			math.Abs(a.Var()-all.Var()) < 1e-9 &&
			a.N() == all.N() && a.Min() == all.Min() && a.Max() == all.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMomentsMergeEmpty(t *testing.T) {
	var a, b Moments
	a.Add(1)
	a.Add(3)
	a.Merge(&b) // merging empty is a no-op
	if a.N() != 2 || a.Mean() != 2 {
		t.Error("merge with empty changed state")
	}
	b.Merge(&a) // merging into empty copies
	if b.N() != 2 || b.Mean() != 2 {
		t.Error("merge into empty failed")
	}
}

func TestTimeWeighted(t *testing.T) {
	var tw TimeWeighted
	tw.Observe(1, 2) // value 1 for 2 time units
	tw.Observe(0, 8) // value 0 for 8
	if math.Abs(tw.Mean()-0.2) > 1e-12 {
		t.Errorf("time-weighted mean = %v, want 0.2", tw.Mean())
	}
	if tw.Total() != 10 || tw.weighted != 2 {
		t.Errorf("total/integral = %v/%v", tw.Total(), tw.weighted)
	}
	tw.Observe(5, -1) // negative duration ignored
	if tw.Total() != 10 {
		t.Error("negative duration should be ignored")
	}
}

func TestBatchMeansIIDNormal(t *testing.T) {
	p := rng.New(77, 0)
	bm := NewBatchMeans(10)
	// Piecewise-constant process: value ~ N(1, 0.25) held for exp(1) time.
	for i := 0; i < 20000; i++ {
		bm.Observe(p.NormalMS(1, 0.5), p.Exp(1))
	}
	if bm.Batches() < 1000 {
		t.Fatalf("too few batches: %d", bm.Batches())
	}
	if math.Abs(bm.Mean()-1) > 3*bm.HalfWidth()/1.96 {
		t.Errorf("batch mean %v too far from 1 (hw %v)", bm.Mean(), bm.HalfWidth())
	}
	if rel := bm.HalfWidth() / bm.Mean(); rel > 0.05 {
		t.Errorf("rel half width %v too large for this much data", rel)
	}
}

func TestBatchMeansSplitsAcrossBoundaries(t *testing.T) {
	bm := NewBatchMeans(1)
	bm.Observe(1, 2.5) // spans two full batches and half of a third
	if bm.Batches() != 2 {
		t.Fatalf("batches = %d, want 2", bm.Batches())
	}
	if bm.Mean() != 1 {
		t.Errorf("mean = %v, want 1", bm.Mean())
	}
	bm.Observe(0, 0.5) // completes third batch with mean 0.5
	if bm.Batches() != 3 {
		t.Fatalf("batches = %d, want 3", bm.Batches())
	}
	if math.Abs(bm.Mean()-(1+1+0.5)/3) > 1e-12 {
		t.Errorf("mean = %v", bm.Mean())
	}
}

func TestBatchMeansHalfWidthInfWhenFew(t *testing.T) {
	bm := NewBatchMeans(10)
	if !math.IsInf(bm.HalfWidth(), 1) {
		t.Error("half width should be +Inf with no batches")
	}
	bm.Observe(1, 10)
	if !math.IsInf(bm.HalfWidth(), 1) {
		t.Error("half width should be +Inf with one batch")
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	for i := 0; i < 1000; i++ {
		c.Add(i%10 == 0)
	}
	if c.N() != 1000 || c.Hits() != 100 {
		t.Fatalf("n=%d hits=%d", c.N(), c.Hits())
	}
	if math.Abs(c.P()-0.1) > 1e-12 {
		t.Errorf("P = %v", c.P())
	}
	want := 1.96 * math.Sqrt(0.1*0.9/1000)
	if math.Abs(c.HalfWidth()-want) > 1e-12 {
		t.Errorf("half width = %v, want %v", c.HalfWidth(), want)
	}
}

func TestCounterMerge(t *testing.T) {
	var a, b Counter
	a.Add(true)
	a.Add(false)
	b.Add(true)
	a.Merge(&b)
	if a.N() != 3 || a.Hits() != 2 {
		t.Errorf("merged counter n=%d hits=%d", a.N(), a.Hits())
	}
}

func TestCounterEmpty(t *testing.T) {
	var c Counter
	if c.P() != 0 || !math.IsInf(c.HalfWidth(), 1) {
		t.Error("empty counter invariants")
	}
}

func TestHurstWhiteNoise(t *testing.T) {
	p := rng.New(13, 0)
	x := make([]float64, 1<<14)
	for i := range x {
		x[i] = p.Normal()
	}
	h := HurstAggVar(x)
	if math.Abs(h-0.5) > 0.08 {
		t.Errorf("white noise Hurst (aggvar) = %v, want ~0.5", h)
	}
}

func TestHurstShortSeries(t *testing.T) {
	if !math.IsNaN(HurstAggVar(make([]float64, 10))) {
		t.Error("short series should give NaN")
	}
}

func TestLinFit(t *testing.T) {
	x := []float64{0, 1, 2, 3}
	y := []float64{1, 3, 5, 7}
	if b1 := linFitSlope(x, y); math.Abs(b1-2) > 1e-12 {
		t.Errorf("slope = %v, want 2", b1)
	}
}

func BenchmarkMomentsAdd(b *testing.B) {
	var m Moments
	for i := 0; i < b.N; i++ {
		m.Add(float64(i % 100))
	}
}

func BenchmarkBatchMeansObserve(b *testing.B) {
	bm := NewBatchMeans(100)
	for i := 0; i < b.N; i++ {
		bm.Observe(float64(i%2), 1.5)
	}
}

func TestWilson(t *testing.T) {
	// Canonical check: 5 successes out of 50 at z = 1.96 gives the
	// textbook Wilson interval (0.0434, 0.2139) to 4 decimals.
	lo, hi := Wilson(5, 50, 1.96)
	if math.Abs(lo-0.0434) > 5e-4 || math.Abs(hi-0.2139) > 5e-4 {
		t.Errorf("Wilson(5, 50) = (%.4f, %.4f), want ~(0.0434, 0.2139)", lo, hi)
	}
	// Degenerate inputs.
	if lo, hi := Wilson(0, 0, 1.96); lo != 0 || hi != 1 {
		t.Errorf("Wilson with n=0 = (%v, %v), want (0, 1)", lo, hi)
	}
	// Zero successes still excludes nothing below and stays in range.
	lo, hi = Wilson(0, 100, 1.96)
	if lo != 0 || hi <= 0 || hi >= 1 {
		t.Errorf("Wilson(0, 100) = (%v, %v), want (0, small)", lo, hi)
	}
	// All successes mirrors all failures.
	lo1, hi1 := Wilson(100, 100, 1.96)
	if math.Abs((1-hi)-lo1) > 1e-12 || hi1 < 1-1e-12 {
		t.Errorf("Wilson(100, 100) = (%v, %v) does not mirror Wilson(0, 100)", lo1, hi1)
	}
	// The interval always contains the point estimate.
	for _, c := range []struct{ h, n int64 }{{1, 7}, {3, 9}, {500, 1000}, {1, 100000}} {
		lo, hi := Wilson(c.h, c.n, 1.96)
		p := float64(c.h) / float64(c.n)
		if p < lo || p > hi {
			t.Errorf("Wilson(%d, %d) = (%v, %v) excludes p=%v", c.h, c.n, lo, hi, p)
		}
	}
}

func TestSlidingCounterWindow(t *testing.T) {
	s := NewSlidingCounter(4)
	if s.N() != 0 || s.P() != 0 {
		t.Fatalf("empty counter: N=%d P=%v", s.N(), s.P())
	}
	// Fill: T T F F -> 2/4.
	s.Add(true)
	s.Add(true)
	s.Add(false)
	s.Add(false)
	if s.N() != 4 || s.Hits() != 2 || s.P() != 0.5 {
		t.Fatalf("after fill: N=%d hits=%d P=%v", s.N(), s.Hits(), s.P())
	}
	// Two more false evict the two trues: window F F F F.
	s.Add(false)
	s.Add(false)
	if s.Hits() != 0 || s.N() != 4 {
		t.Fatalf("after eviction: hits=%d N=%d", s.Hits(), s.N())
	}
	e := s.Estimate(0) // defaults to z=1.96
	if e.Z != 1.96 || e.N != 4 || e.Hits != 0 || e.P != 0 {
		t.Fatalf("estimate = %+v", e)
	}
	if e.Lo != 0 || e.Hi <= 0 {
		t.Fatalf("estimate interval = (%v, %v)", e.Lo, e.Hi)
	}
}

func TestSlidingCounterMatchesDirectWilson(t *testing.T) {
	s := NewSlidingCounter(100)
	for i := 0; i < 250; i++ {
		s.Add(i%10 == 0)
	}
	e := s.Estimate(1.96)
	lo, hi := Wilson(e.Hits, e.N, 1.96)
	if e.Lo != lo || e.Hi != hi || e.N != 100 {
		t.Fatalf("estimate %+v disagrees with Wilson(%d, %d) = (%v, %v)", e, e.Hits, e.N, lo, hi)
	}
}
