package link

import (
	"math"
	"testing"
)

func TestFluidBufferPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewFluidBuffer(0, 1) },
		func() { NewFluidBuffer(1, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestFluidBufferFillDrainCycle(t *testing.T) {
	// Capacity 10, buffer 5. Load 12 for 2s: backlog 4 (no loss).
	// Load 8 for 1s: backlog 2. Load 8 for 1s more: backlog 0 at t=3.
	b := NewFluidBuffer(10, 5)
	b.EnableStats(0)
	b.SetLoad(0, 12)
	b.SetLoad(2, 8)
	b.AdvanceTo(4)
	if math.Abs(b.backlog) > 1e-12 {
		t.Errorf("backlog = %v, want 0", b.backlog)
	}
	r := b.Report()
	if r.Lost != 0 {
		t.Errorf("lost = %v, want 0", r.Lost)
	}
	// Busy: filling 2s + draining 2s = 4s of 4s.
	if math.Abs(r.BusyFraction-1) > 1e-12 {
		t.Errorf("busy = %v, want 1", r.BusyFraction)
	}
	// Mean backlog: fill ramp 0->4 (avg 2) for 2s, drain 4->0 (avg 2) for 2s.
	if math.Abs(r.MeanBacklog-2) > 1e-12 {
		t.Errorf("mean backlog = %v, want 2", r.MeanBacklog)
	}
	if math.Abs(r.MeanDelay-0.2) > 1e-12 {
		t.Errorf("mean delay = %v, want 0.2", r.MeanDelay)
	}
}

func TestFluidBufferLoss(t *testing.T) {
	// Capacity 10, buffer 2. Load 14 for 2s: fills 2 in 0.5s, then loses
	// 4/s for 1.5s = 6 lost of 28 offered.
	b := NewFluidBuffer(10, 2)
	b.EnableStats(0)
	b.SetLoad(0, 14)
	b.AdvanceTo(2)
	r := b.Report()
	if math.Abs(r.Lost-6) > 1e-12 {
		t.Errorf("lost = %v, want 6", r.Lost)
	}
	if math.Abs(r.Offered-28) > 1e-12 {
		t.Errorf("offered = %v, want 28", r.Offered)
	}
	if math.Abs(r.LossFraction-6.0/28) > 1e-12 {
		t.Errorf("loss fraction = %v", r.LossFraction)
	}
	if math.Abs(r.FullFraction-0.75) > 1e-12 {
		t.Errorf("full fraction = %v, want 0.75", r.FullFraction)
	}
}

func TestFluidBufferZeroSizeMatchesBufferless(t *testing.T) {
	// B = 0: lost volume is exactly the integral of (load - c)+.
	b := NewFluidBuffer(10, 0)
	b.EnableStats(0)
	b.SetLoad(0, 13) // 3/s excess for 1s
	b.SetLoad(1, 7)  // under capacity for 1s
	b.AdvanceTo(2)
	r := b.Report()
	if math.Abs(r.Lost-3) > 1e-12 {
		t.Errorf("lost = %v, want 3", r.Lost)
	}
	if b.backlog != 0 {
		t.Errorf("backlog = %v", b.backlog)
	}
}

func TestFluidBufferInfinite(t *testing.T) {
	b := NewFluidBuffer(10, math.Inf(1))
	b.EnableStats(0)
	b.SetLoad(0, 1000)
	b.AdvanceTo(10)
	r := b.Report()
	if r.Lost != 0 {
		t.Errorf("infinite buffer lost %v", r.Lost)
	}
	if math.Abs(b.backlog-9900) > 1e-9 {
		t.Errorf("backlog = %v, want 9900", b.backlog)
	}
}

func TestFluidBufferWarmupExcluded(t *testing.T) {
	b := NewFluidBuffer(10, 1)
	b.SetLoad(0, 100)
	b.AdvanceTo(5) // pre-stats: fills and would lose, but nothing counted
	b.EnableStats(5)
	b.SetLoad(5, 5)
	b.AdvanceTo(6)
	r := b.Report()
	if r.Lost != 0 || r.Offered != 5 {
		t.Errorf("warm-up leaked: lost %v offered %v", r.Lost, r.Offered)
	}
}

func TestFluidBufferExactlyAtCapacity(t *testing.T) {
	b := NewFluidBuffer(10, 5)
	b.EnableStats(0)
	b.SetLoad(0, 12) // backlog 2 after 1s
	b.SetLoad(1, 10) // frozen
	b.AdvanceTo(3)
	if math.Abs(b.backlog-2) > 1e-12 {
		t.Errorf("backlog = %v, want 2 (frozen)", b.backlog)
	}
	r := b.Report()
	// Busy includes the frozen period.
	if math.Abs(r.BusyFraction-1) > 1e-12 {
		t.Errorf("busy = %v", r.BusyFraction)
	}
}

func TestBufferMonotoneInSize(t *testing.T) {
	// The same on/off load through growing buffers loses monotonically less
	// — the paper's conservatism claim in microcosm.
	drive := func(size float64) float64 {
		b := NewFluidBuffer(10, size)
		b.EnableStats(0)
		tNow := 0.0
		for i := 0; i < 100; i++ {
			b.SetLoad(tNow, 15)
			tNow += 1
			b.SetLoad(tNow, 5)
			tNow += 2
		}
		b.AdvanceTo(tNow)
		return b.Report().LossFraction
	}
	prev := math.Inf(1)
	for _, size := range []float64{0, 1, 3, 6, 20} {
		lf := drive(size)
		if lf > prev {
			t.Fatalf("loss fraction not monotone at B=%v: %v > %v", size, lf, prev)
		}
		prev = lf
	}
	if drive(0) <= 0 {
		t.Error("B=0 should lose")
	}
	if drive(20) != 0 {
		t.Error("B=20 absorbs this cycle entirely")
	}
}
