package link

import (
	"math"
	"testing"
)

func TestOverflowTimeFraction(t *testing.T) {
	l := New(Config{Capacity: 10})
	l.EnableStats(0)
	l.SetLoad(0, 12, 3) // over capacity
	l.SetLoad(2, 8, 2)  // under
	l.AdvanceTo(10)
	r := l.Report()
	if math.Abs(r.OverflowTimeFraction-0.2) > 1e-12 {
		t.Errorf("overflow fraction = %v, want 0.2", r.OverflowTimeFraction)
	}
	if r.Duration != 10 {
		t.Errorf("duration = %v", r.Duration)
	}
}

func TestWarmupExcluded(t *testing.T) {
	l := New(Config{Capacity: 10})
	l.SetLoad(0, 100, 1) // massive overload during warm-up
	l.AdvanceTo(5)
	l.EnableStats(5)
	l.SetLoad(5, 5, 1)
	l.AdvanceTo(10)
	r := l.Report()
	if r.OverflowTimeFraction != 0 {
		t.Errorf("warm-up leaked into stats: %v", r.OverflowTimeFraction)
	}
	if r.Duration != 5 {
		t.Errorf("duration = %v", r.Duration)
	}
}

func TestUtilizationClampedAtCapacity(t *testing.T) {
	l := New(Config{Capacity: 10})
	l.EnableStats(0)
	l.SetLoad(0, 20, 2) // offered 20, carried 10
	l.AdvanceTo(1)
	l.SetLoad(1, 5, 1) // offered 5, carried 5
	l.AdvanceTo(2)
	r := l.Report()
	if math.Abs(r.Utilization-0.75) > 1e-12 { // (10+5)/2 / 10
		t.Errorf("utilization = %v, want 0.75", r.Utilization)
	}
	if math.Abs(r.OfferedLoad-12.5) > 1e-12 {
		t.Errorf("offered = %v, want 12.5", r.OfferedLoad)
	}
}

func TestPointSampling(t *testing.T) {
	l := New(Config{Capacity: 10, SamplePeriod: 1})
	l.EnableStats(0)
	l.SetLoad(0, 12, 1)
	l.AdvanceTo(3.5) // samples at 1, 2, 3 -> over
	l.SetLoad(3.5, 8, 1)
	l.AdvanceTo(7.5) // samples at 4, 5, 6, 7 -> under
	r := l.Report()
	if r.Samples != 7 {
		t.Fatalf("samples = %d, want 7", r.Samples)
	}
	if r.OverflowHits != 3 {
		t.Errorf("hits = %d, want 3", r.OverflowHits)
	}
	if math.Abs(r.OverflowPointSample-3.0/7) > 1e-12 {
		t.Errorf("point estimate = %v", r.OverflowPointSample)
	}
}

func TestGaussianExtrapolation(t *testing.T) {
	// Loads alternating 8 and 12 around capacity 15: never overflow
	// directly, but the Gaussian extrapolation should be positive and small.
	l := New(Config{Capacity: 15, SamplePeriod: 1})
	l.EnableStats(0)
	tNow := 0.0
	for i := 0; i < 1000; i++ {
		load := 8.0
		if i%2 == 1 {
			load = 12
		}
		l.SetLoad(tNow, load, 10)
		tNow += 1.0
	}
	l.AdvanceTo(tNow)
	r := l.Report()
	if r.OverflowPointSample != 0 {
		t.Fatalf("direct estimate should be 0, got %v", r.OverflowPointSample)
	}
	if r.OverflowGaussian <= 0 || r.OverflowGaussian > 0.1 {
		t.Errorf("Gaussian extrapolation = %v", r.OverflowGaussian)
	}
	// Mean load 10, sd 2 -> Q(2.5) ~ 0.0062.
	if math.Abs(r.OverflowGaussian-0.0062) > 0.001 {
		t.Errorf("extrapolation = %v, want ~0.0062", r.OverflowGaussian)
	}
}

func TestBatchMeansCI(t *testing.T) {
	l := New(Config{Capacity: 10, BatchLen: 10})
	l.EnableStats(0)
	tNow := 0.0
	// Deterministic 10% overflow pattern.
	for i := 0; i < 500; i++ {
		l.SetLoad(tNow, 12, 1)
		tNow += 1
		l.SetLoad(tNow, 5, 1)
		tNow += 9
	}
	l.AdvanceTo(tNow)
	r := l.Report()
	if r.Batches != 500 {
		t.Fatalf("batches = %d", r.Batches)
	}
	if math.Abs(r.OverflowTimeFraction-0.1) > 1e-9 {
		t.Errorf("fraction = %v", r.OverflowTimeFraction)
	}
	// Perfectly periodic pattern aligned with batches: zero variance CI.
	if r.OverflowHalfWidth > 1e-9 {
		t.Errorf("half width = %v, want ~0", r.OverflowHalfWidth)
	}
}

func TestBestOverflowEstimate(t *testing.T) {
	// Resolved direct estimate.
	r := Report{OverflowTimeFraction: 0.01, OverflowHalfWidth: 0.001}
	pf, ok := r.BestOverflowEstimate(1e-3, 0.2)
	if !ok || pf != 0.01 {
		t.Errorf("resolved: %v %v", pf, ok)
	}
	// Far below target: extrapolate.
	r = Report{OverflowTimeFraction: 0, OverflowHalfWidth: 1e-9, OverflowGaussian: 1e-7}
	pf, ok = r.BestOverflowEstimate(1e-3, 0.2)
	if !ok || pf != 1e-7 {
		t.Errorf("extrapolated: %v %v", pf, ok)
	}
	// Neither: unresolved.
	r = Report{OverflowTimeFraction: 5e-4, OverflowHalfWidth: 4e-4, OverflowGaussian: 1e-3}
	if _, ok = r.BestOverflowEstimate(1e-3, 0.2); ok {
		t.Error("should be unresolved")
	}
}

func TestAdvanceToPastIsNoop(t *testing.T) {
	l := New(Config{Capacity: 10})
	l.EnableStats(0)
	l.SetLoad(0, 12, 1)
	l.AdvanceTo(5)
	l.AdvanceTo(3) // no-op
	r := l.Report()
	if r.Duration != 5 {
		t.Errorf("duration = %v", r.Duration)
	}
}

func TestFlowCountTracking(t *testing.T) {
	l := New(Config{Capacity: 10})
	l.EnableStats(0)
	l.SetLoad(0, 1, 2)
	l.SetLoad(5, 1, 4)
	l.AdvanceTo(10)
	r := l.Report()
	if math.Abs(r.MeanFlows-3) > 1e-12 {
		t.Errorf("mean flows = %v, want 3", r.MeanFlows)
	}
}

func TestPeakLoad(t *testing.T) {
	l := New(Config{Capacity: 10})
	l.EnableStats(0)
	l.SetLoad(0, 3, 1)
	l.SetLoad(1, 17, 2)
	l.SetLoad(2, 4, 1)
	l.AdvanceTo(3)
	if r := l.Report(); r.PeakLoad != 17 {
		t.Errorf("peak = %v", r.PeakLoad)
	}
}

func BenchmarkSetLoad(b *testing.B) {
	l := New(Config{Capacity: 100, BatchLen: 100, SamplePeriod: 50})
	l.EnableStats(0)
	tNow := 0.0
	for i := 0; i < b.N; i++ {
		tNow += 0.01
		l.SetLoad(tNow, float64(90+i%20), 100)
	}
}
