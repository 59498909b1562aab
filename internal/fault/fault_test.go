package fault

import (
	"math"
	"testing"
	"time"

	"repro/internal/estimator"
)

// TestModeStringRoundTrip pins the exact Mode names in constant order
// (scenario fault windows spell them) and that ParseMode reads the same
// table.
func TestModeStringRoundTrip(t *testing.T) {
	golden := []string{"none", "nan", "inf", "notok", "drop"}
	for i, want := range golden {
		m := Mode(i)
		if got, err := ParseMode(want); m.String() != want || err != nil || got != m {
			t.Errorf("Mode(%d) = %q, want %q; parses back to %v, %v", i, m, want, got, err)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Fatal("ParseMode accepted bogus mode")
	}
	// The value past the list is outside the table: the list is complete.
	if s := Mode(len(golden)).String(); s != "Mode(5)" {
		t.Fatalf("out-of-table String = %q", s)
	}
}

// drive warms an estimator with a steady two-flow cross-section.
func drive(e estimator.Estimator, upto float64) {
	for t := 1.0; t <= upto; t++ {
		e.Advance(t)
		e.Update(2.0, 2.0, 2)
	}
}

func TestEstimatorTransparentWhenHealthy(t *testing.T) {
	real := estimator.NewExponential(10)
	wrapped := Wrap(estimator.NewExponential(10))
	real.Reset(0)
	wrapped.Reset(0)
	drive(real, 50)
	drive(wrapped, 50)
	rm, rs, rok := real.Estimate()
	wm, ws, wok := wrapped.Estimate()
	if rm != wm || rs != ws || rok != wok {
		t.Fatalf("wrapped (%v, %v, %v) != real (%v, %v, %v)", wm, ws, wok, rm, rs, rok)
	}
	if wrapped.Name() != "fault("+real.Name()+")" {
		t.Fatalf("Name = %q", wrapped.Name())
	}
	if wrapped.Memory() != estimator.Memory(real) {
		t.Fatalf("Memory = %g, want %g", wrapped.Memory(), estimator.Memory(real))
	}
}

func TestEstimatorFaultModes(t *testing.T) {
	f := Wrap(estimator.NewExponential(10))
	f.Reset(0)
	drive(f, 50)

	f.SetMode(NaNEstimates)
	if mu, sigma, ok := f.Estimate(); !math.IsNaN(mu) || !math.IsNaN(sigma) || !ok {
		t.Fatalf("nan mode: (%v, %v, %v)", mu, sigma, ok)
	}
	f.SetMode(InfEstimates)
	if mu, sigma, ok := f.Estimate(); !math.IsInf(mu, 1) || !math.IsInf(sigma, 1) || !ok {
		t.Fatalf("inf mode: (%v, %v, %v)", mu, sigma, ok)
	}
	f.SetMode(NotOK)
	if mu, _, ok := f.Estimate(); ok || math.IsNaN(mu) {
		t.Fatalf("notok mode: (%v, ok=%v), want real mu with ok=false", mu, ok)
	}

	// Clearing the fault restores genuine estimates: the real filter kept
	// running underneath.
	f.SetMode(None)
	if mu, sigma, ok := f.Estimate(); !ok || mu != 1.0 || sigma != 0 {
		t.Fatalf("recovered estimate (%v, %v, %v), want (1, 0, true)", mu, sigma, ok)
	}
}

func TestEstimatorDropUpdates(t *testing.T) {
	f := Wrap(estimator.NewExponential(1))
	f.Reset(0)
	drive(f, 20)
	mu0, _, _ := f.Estimate()
	f.SetMode(DropUpdates)
	for t := 21.0; t <= 40; t++ {
		f.Advance(t)
		f.Update(200, 20000, 2) // a surge the filter must never see
	}
	if f.Dropped() != 20 {
		t.Fatalf("Dropped = %d, want 20", f.Dropped())
	}
	mu1, _, _ := f.Estimate()
	if mu1 != mu0 {
		t.Fatalf("mu moved %v -> %v while updates were dropped", mu0, mu1)
	}
}

func TestEstimatorStall(t *testing.T) {
	f := Wrap(estimator.NewExponential(10))
	f.Reset(0)
	resume := f.Stall()
	entered := make(chan struct{})
	done := make(chan struct{})
	go func() {
		close(entered)
		f.Advance(1) // wedges on the gate
		close(done)
	}()
	<-entered
	select {
	case <-done:
		t.Fatal("Advance returned while stalled")
	case <-time.After(20 * time.Millisecond):
	}
	resume()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Advance still wedged after resume")
	}
	resume() // idempotent
	f.Advance(2)
}

func TestClock(t *testing.T) {
	c := NewClock(250)
	if got := c.Now(); got != 250 {
		t.Fatalf("first read %d, want 250", got)
	}
	if got := c.Now(); got != 500 {
		t.Fatalf("second read %d, want 500", got)
	}
	c.Run(0)
	if a, b := c.Now(), c.Now(); a != 500 || b != 500 {
		t.Fatalf("frozen reads (%d, %d), want (500, 500)", a, b)
	}
	c.Jump(1e6)
	if got := c.Now(); got != 500+1e6 {
		t.Fatalf("post-jump read %d", got)
	}
	c.Run(100)
	if got := c.Now(); got != 600+1e6 {
		t.Fatalf("resumed read %d", got)
	}
	fn := c.Func()
	if got := fn(); got != 700+1e6 {
		t.Fatalf("Func read %d", got)
	}
}

// TestValidateWindows: a structural schedule is sorted by From in place,
// ModeAt reads it as half-open windows, and an empty, non-finite,
// unknown-mode or overlapping window is refused.
func TestValidateWindows(t *testing.T) {
	ws := []Window{{DropUpdates, 30, 35}, {NaNEstimates, 10, 12}}
	if err := ValidateWindows(ws); err != nil {
		t.Fatal(err)
	}
	if ws[0].Mode != NaNEstimates || ws[0].From != 10 || ws[1].Mode != DropUpdates {
		t.Fatalf("windows not sorted by From: %+v", ws)
	}
	for _, tc := range []struct {
		t    float64
		want Mode
	}{{5, None}, {10, NaNEstimates}, {11.9, NaNEstimates}, {12, None}, {30, DropUpdates}, {35, None}} {
		if got := ModeAt(ws, tc.t); got != tc.want {
			t.Fatalf("ModeAt(%g) = %v, want %v", tc.t, got, tc.want)
		}
	}
	if err := ValidateWindows(nil); err != nil {
		t.Fatalf("empty schedule: %v", err)
	}
	for _, bad := range [][]Window{
		{{NaNEstimates, 2, 2}},
		{{NaNEstimates, 3, 1}},
		{{NaNEstimates, math.NaN(), 1}},
		{{NaNEstimates, 0, math.Inf(1)}},
		{{modeEnd, 1, 2}},
		{{NaNEstimates, 1, 5}, {DropUpdates, 4, 6}},
	} {
		if err := ValidateWindows(bad); err == nil {
			t.Fatalf("ValidateWindows(%+v) accepted", bad)
		}
	}
}

func TestClientPlan(t *testing.T) {
	honest := ClientPlan{Lie: 1}
	if err := honest.Validate(); err != nil {
		t.Fatal(err)
	}
	if honest.Declared(3) != 3 {
		t.Fatal("honest client changed its declaration")
	}
	if honest.Leaks(0) {
		t.Fatal("LeakP=0 leaked")
	}
	liar := ClientPlan{LeakP: 0.25, Lie: 0.5}
	if err := liar.Validate(); err != nil {
		t.Fatal(err)
	}
	if liar.Declared(4) != 2 {
		t.Fatalf("Declared(4) = %g, want 2", liar.Declared(4))
	}
	if !liar.Leaks(0.1) || liar.Leaks(0.25) {
		t.Fatal("Leaks threshold wrong")
	}
	for _, bad := range []ClientPlan{{LeakP: -0.1, Lie: 1}, {LeakP: 1.5, Lie: 1}, {Lie: 0}, {Lie: -1}, {LeakP: math.NaN(), Lie: 1}, {Lie: math.Inf(1)}} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("Validate accepted %+v", bad)
		}
	}
}
