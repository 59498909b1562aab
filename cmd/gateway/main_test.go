package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/adaptive"
	"repro/internal/estimator"
)

// TestRunRejectsBadFlags is the flag-validation table: every case must
// come back as a one-line error (main prints it after "gateway:" and
// exits 1) before anything is served.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-n -5", "capacity"},
		{"-pce 2", "out of (0,1)"},
		{"-pq 0.7", "out of (0, 0.5)"},
		{"-estimator window", "positive memory"},
		{"-cluster -1", "must be non-negative"},
		{"-tick-interval 0", "must be positive"},
		{"-tick-interval -1s", "must be positive"},
		{"-placement bogus", "unknown placement policy"},
		// The replay mode and its flags are gone; naming one is an error.
		{"-lambda 1", "flag provided but not defined: -lambda"},
	} {
		var out bytes.Buffer
		err := run(strings.Fields(tc.args), &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) || strings.Contains(err.Error(), "\n") {
			t.Errorf("%s: error %v, want one line containing %q", tc.args, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("%s: printed %q before failing", tc.args, out.String())
		}
	}
}

// TestAggregateVarianceMemoryIsEightTicks: without -tm, the aggregate
// estimator's variance memory T_v is eight measurement periods, and the
// period Run ticks at is -tick-interval in seconds.
func TestAggregateVarianceMemoryIsEightTicks(t *testing.T) {
	for _, tc := range []struct {
		args string
		tv   float64
	}{
		{"-estimator aggregate", 0.8},
		{"-estimator aggregate -tick-interval 250ms", 2},
		{"-estimator aggregate -tm 3", 3},
	} {
		o, err := parse(strings.Fields(tc.args))
		if err != nil {
			t.Fatalf("%s: %v", tc.args, err)
		}
		var tuners []*adaptive.Controller
		cfg, err := o.gatewayConfig(&tuners)
		if err != nil {
			t.Fatalf("%s: %v", tc.args, err)
		}
		if tv := cfg.Estimator.(*estimator.AggregateOnly).Tv; tv != tc.tv {
			t.Errorf("%s: T_v = %g, want %g", tc.args, tv, tc.tv)
		}
	}
}
