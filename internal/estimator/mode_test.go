package estimator

import "testing"

// TestModeStringGolden pins the wire vocabulary: these strings appear in
// CLI flags, scenario JSON and reports, so renaming one is a compatibility
// break, not a refactor.
func TestModeStringGolden(t *testing.T) {
	golden := []string{"memoryless", "exponential", "window", "aggregate", "oracle"}
	for i, want := range golden {
		if got := Mode(i).String(); got != want {
			t.Errorf("Mode(%d).String() = %q, want %q", i, got, want)
		}
	}
	// The value past the list is outside the table: the list is complete.
	if got := Mode(len(golden)).String(); got != "Mode(5)" {
		t.Errorf("out-of-table String() = %q", got)
	}
}

func TestParseModeRoundTrip(t *testing.T) {
	for m := ModeMemoryless; m <= ModeOracle; m++ {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Error("ParseMode accepted bogus input")
	}
	if _, err := ParseMode(""); err == nil {
		t.Error("ParseMode accepted empty input")
	}
}

// TestModeNew pins the one estimator-from-spec switch: each mode builds
// its own estimator type with the memory it was given, the aggregate
// variance memory defaults to eight ticks, and a memory-bearing mode
// without a memory is an error rather than a constructor panic.
func TestModeNew(t *testing.T) {
	for m, want := range map[Mode]string{
		ModeMemoryless:  "memoryless",
		ModeExponential: "exponential",
		ModeWindow:      "window",
		ModeAggregate:   "aggregate-only",
		ModeOracle:      "oracle",
	} {
		e, err := m.New(5, 0.5, 1, 0.3)
		if err != nil || e.Name() != want {
			t.Errorf("%v.New = %v, %v; want a %s estimator", m, e, err, want)
		}
	}
	agg, err := ModeAggregate.New(0, 0.5, 1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if a := agg.(*AggregateOnly); a.Tm != 0 || a.Tv != 4 {
		t.Errorf("aggregate defaults: Tm %g Tv %g, want 0 and 8 ticks = 4", a.Tm, a.Tv)
	}
	if a, _ := ModeAggregate.New(5, 0.5, 1, 0.3); a.(*AggregateOnly).Tv != 5 {
		t.Errorf("aggregate with memory 5: Tv %g, want 5", a.(*AggregateOnly).Tv)
	}
	for _, m := range []Mode{ModeExponential, ModeWindow, Mode(99)} {
		if _, err := m.New(0, 0.5, 1, 0.3); err == nil {
			t.Errorf("%v.New accepted memory 0", m)
		}
	}
	if _, err := ModeAggregate.New(0, 0, 1, 0.3); err == nil {
		t.Error("aggregate accepted neither memory nor tick")
	}
}
