package adaptive

import (
	"math"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/theory"
)

func newTestController(t *testing.T, cfg Config) *Controller {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{Capacity: 100},
		{Capacity: 100, Th: 100},
		{Capacity: 100, Th: 100, PQ: 0},
		{Capacity: 100, Th: 100, PQ: 1.5},
		{Capacity: -1, Th: 100, PQ: 0.01},
		{Capacity: 100, Th: math.Inf(1), PQ: 0.01},
		{Capacity: 100, Th: 100, PQ: 0.01, MaxLag: 64, Block: 32},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d: New accepted %+v", i, cfg)
		}
	}
	c := newTestController(t, Config{Capacity: 100, Th: 100, PQ: 0.01})
	got := c.Config()
	if got.MaxLag != 64 || got.Block != 256 {
		t.Errorf("defaults: %+v", got)
	}
}

// TestRetuneConvergesToTarget drives the controller with a stationary
// workload and checks the control loop: T_m walks from its initial value
// to T̃_h = Th/√(c/μ̂), every step obeys the rate-of-change clamp, and the
// loop goes quiescent inside the hysteresis band.
func TestRetuneConvergesToTarget(t *testing.T) {
	const (
		capacity = 100.0
		th       = 100.0
		mu       = 1.0
		tick     = 0.5
	)
	c := newTestController(t, Config{Capacity: capacity, Th: th, PQ: 1e-2})
	r := rng.New(7, 0)
	target := th / math.Sqrt(capacity/mu) // 10
	tm := 0.5
	lastRetuneTm := tm
	for i := 0; i < 2000; i++ {
		agg := capacity*0.9 + r.Normal()
		next, retune := c.ObserveTick(float64(i)*tick, agg, 90, mu, 0.3, tm)
		if retune {
			if ratio := next / tm; ratio > 1.05+1e-12 || ratio < 1/1.05-1e-12 {
				t.Fatalf("tick %d: retune %g -> %g violates the maxStep clamp", i, tm, next)
			}
			lastRetuneTm = next
		} else if next != tm {
			t.Fatalf("tick %d: retune=false but memory changed %g -> %g", i, tm, next)
		}
		tm = next
	}
	if math.Abs(tm-target) > 0.1*target+1e-9 {
		t.Fatalf("T_m = %g did not converge into the hysteresis band around %g", tm, target)
	}
	snap := c.Snapshot()
	if snap.Retunes == 0 || snap.Tm != tm || math.Abs(snap.Target-target) > 1e-9 {
		t.Fatalf("snapshot %+v inconsistent with loop state tm=%g target=%g", snap, tm, target)
	}
	// Quiescence: once inside the band on a stationary workload, the
	// controller must stop issuing retunes entirely.
	before := c.Snapshot().Retunes
	for i := 2000; i < 2500; i++ {
		agg := capacity*0.9 + r.Normal()
		next, retune := c.ObserveTick(float64(i)*tick, agg, 90, mu, 0.3, tm)
		if retune {
			t.Fatalf("tick %d: retune inside the hysteresis band (%g -> %g)", i, tm, next)
		}
		tm = next
	}
	if after := c.Snapshot().Retunes; after != before {
		t.Fatalf("retune counter advanced while quiescent: %d -> %d", before, after)
	}
	_ = lastRetuneTm
}

// TestMemorylessEntersAtFloor: a tm = 0 start has no scale for the
// geometric clamp to grow from, so the first retune enters at the memory
// floor Th/1000.
func TestMemorylessEntersAtFloor(t *testing.T) {
	c := newTestController(t, Config{Capacity: 100, Th: 100, PQ: 1e-2})
	next, retune := c.ObserveTick(0, 90, 90, 1.0, 0.3, 0)
	if !retune || next != 0.1 {
		t.Fatalf("first retune from tm=0: got (%g, %v), want (0.1, true)", next, retune)
	}
}

// TestTargetClamped: an absurd measured mean must not drive T_m outside
// [Th/1000, Th].
func TestTargetClamped(t *testing.T) {
	c := newTestController(t, Config{Capacity: 100, Th: 100, PQ: 1e-2})
	tm := 50.0
	// μ̂ far above capacity would push the raw target Th/√(c/μ̂) above Th.
	for i := 0; i < 100000; i++ {
		tm, _ = c.ObserveTick(float64(i), 90, 1, 1e6, 0.3, tm)
	}
	if tm > 100 {
		t.Fatalf("T_m %g exceeded Th = 100", tm)
	}
	c2 := newTestController(t, Config{Capacity: 100, Th: 100, PQ: 1e-2})
	tm = 50.0
	for i := 0; i < 100000; i++ {
		tm, _ = c2.ObserveTick(float64(i), 90, 1, 1e-12, 0.3, tm)
	}
	if tm < 0.1 {
		t.Fatalf("T_m %g fell below Th/1000 = 0.1", tm)
	}
}

// TestAdversarialInputs: NaN/Inf ticks, aggregates and estimates must
// never produce a NaN memory or corrupt the counters.
func TestAdversarialInputs(t *testing.T) {
	c := newTestController(t, Config{Capacity: 100, Th: 100, PQ: 1e-2})
	tm := 1.0
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 0}
	i := 0
	for _, now := range bad {
		for _, agg := range bad {
			for _, mu := range bad {
				next, _ := c.ObserveTick(now, agg, 5, mu, 0.3, tm)
				if math.IsNaN(next) || next < 0 {
					t.Fatalf("ObserveTick(%g, %g, 5, %g) returned memory %g", now, agg, mu, next)
				}
				tm = next
				i++
			}
		}
	}
	// And a clean recovery afterwards.
	for j := 0; j < 600; j++ {
		next, _ := c.ObserveTick(1000+float64(j)*0.5, 90, 90, 1.0, 0.3, tm)
		tm = next
	}
	if math.IsNaN(tm) || tm <= 0 {
		t.Fatalf("recovery memory %g", tm)
	}
	snap := c.Snapshot()
	if math.IsNaN(snap.TcHat) || math.IsNaN(snap.Target) {
		t.Fatalf("snapshot poisoned: %+v", snap)
	}
}

// TestTcEstimateFromBlocks feeds a discretized OU-like aggregate with a
// known correlation time and checks the blocked, smoothed T̂_c lands near
// it, and that the regime classifier reads the separation correctly.
func TestTcEstimateFromBlocks(t *testing.T) {
	const (
		tc   = 0.5
		tick = 0.25
	)
	c := newTestController(t, Config{Capacity: 100, Th: 100, PQ: 1e-2, MaxLag: 64})
	r := rng.New(99, 3)
	a := math.Exp(-tick / tc)
	prev := 0.0
	tm := 10.0
	for i := 0; i < 20000; i++ {
		prev = a*prev + math.Sqrt(1-a*a)*r.Normal()
		agg := 90 + 5*prev
		tm, _ = c.ObserveTick(float64(i)*tick, agg, 90, 1.0, 0.3, tm)
	}
	snap := c.Snapshot()
	if snap.Blocks == 0 {
		t.Fatal("no ACF blocks completed")
	}
	if snap.TcHat < 0.5*tc || snap.TcHat > 2*tc {
		t.Fatalf("T̂_c = %g, want ~%g", snap.TcHat, tc)
	}
	// T̂_c ≈ 0.5 ≪ T̃_h = 10: the masking separation (factor 10) holds.
	if snap.Regime != "masking" {
		t.Fatalf("regime %q, want masking (T̂_c=%g, target=%g)", snap.Regime, snap.TcHat, snap.Target)
	}
	want := theory.MaskingOverflow(theory.System{
		Capacity: 100, Mu: 1, Sigma: 0.3, Th: 100, Tc: snap.TcHat, Tm: snap.Tm,
	}, 1e-2)
	if snap.PfMasking != want {
		t.Fatalf("PfMasking = %g, want %g", snap.PfMasking, want)
	}
}

// TestRegimeClassification drives the classifier through all three
// regimes by injecting the measured state directly (white-box).
func TestRegimeClassification(t *testing.T) {
	cases := []struct {
		tcHat float64
		want  theory.Regime
	}{
		{0.5, theory.RegimeMasking},      // 0.5·10 ≤ 10
		{1.0, theory.RegimeMasking},      // boundary: 1.0·10 ≤ 10
		{5.0, theory.RegimeIntermediate}, // neither separation
		{100.0, theory.RegimeRepair},     // 100 ≥ 10·10
		{math.Nextafter(100, 0), theory.RegimeIntermediate},
	}
	for _, tc := range cases {
		c := newTestController(t, Config{Capacity: 100, Th: 100, PQ: 1e-2})
		c.tcHat = tc.tcHat
		c.lastMu, c.lastSigma = 1.0, 0.3
		c.tm = 10
		snap := c.Snapshot()
		if snap.Regime != tc.want.String() {
			t.Errorf("tcHat=%g: regime %q, want %q", tc.tcHat, snap.Regime, tc.want)
		}
		if snap.PfMasking <= 0 || snap.PfRepair <= 0 {
			t.Errorf("tcHat=%g: zero p_f predictions %+v", tc.tcHat, snap)
		}
	}
	// Unwarmed controller: no measured time-scales, no extrapolation.
	c := newTestController(t, Config{Capacity: 100, Th: 100, PQ: 1e-2})
	snap := c.Snapshot()
	if snap.Regime != "intermediate" || snap.PfMasking != 0 || snap.PfRepair != 0 {
		t.Errorf("unwarmed snapshot %+v", snap)
	}
}

func TestWritePrometheus(t *testing.T) {
	c := newTestController(t, Config{Capacity: 100, Th: 100, PQ: 1e-2})
	c.tcHat, c.lastMu, c.lastSigma, c.tm = 0.5, 1.0, 0.3, 10
	var b strings.Builder
	c.Snapshot().WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"mbac_adaptive_memory 10",
		"mbac_adaptive_tc_hat 0.5",
		"mbac_adaptive_regime{regime=\"masking\"} 1",
		"mbac_adaptive_regime{regime=\"repair\"} 0",
		"mbac_adaptive_retunes_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	var fb strings.Builder
	WriteFleetPrometheus(&fb, []Snapshot{c.Snapshot(), {}})
	fleet := fb.String()
	for _, want := range []string{
		"mbac_adaptive_instance_memory{instance=\"0\"} 10",
		"mbac_adaptive_instance_memory{instance=\"1\"} 0",
		"mbac_adaptive_instance_tc_hat{instance=\"0\"} 0.5",
	} {
		if !strings.Contains(fleet, want) {
			t.Errorf("missing %q in:\n%s", want, fleet)
		}
	}
}
