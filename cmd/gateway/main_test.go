package main

import (
	"bytes"
	"fmt"
	"regexp"
	"strings"
	"testing"
)

// TestRunRejectsBadFlags is the flag-validation table: every case must
// come back as a one-line error (main prints it after "gateway:" and
// exits 1) before anything is replayed or served.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-workers 0", "must be positive"},
		{"-tick -1", "must be positive"},
		{"-n -5", "capacity"},
		{"-pce 2", "out of (0,1)"},
		{"-batch 0", "at least 1"},
		{"-lie 0", "lie factor"},
		{"-estimator window", "positive memory"},
		{"-cluster 2", "-cluster requires -serve"},
		{"-hold", "-hold requires -listen"},
		{"-serve -hold -listen 127.0.0.1:0", "-hold is a replay flag"},
		{"-serve -faults nan:1-2", "-faults is a replay flag"},
		{"-serve -leak 0.1", "-leak is a replay flag"},
		{"-serve -lie 0.5", "-lie is a replay flag"},
		{"-serve -workers 4", "-workers is a replay flag"},
		{"-serve -batch 4", "-batch is a replay flag"},
		{"-serve -duration 10", "-duration is a replay flag"},
		{"-serve -cluster 2 -lambda 1", "-lambda is a replay flag"},
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

// replayOutput runs a short single-worker replay and returns its stdout
// without the two lines that carry wall-clock measurements.
func replayOutput(t *testing.T, extra ...string) string {
	t.Helper()
	var out bytes.Buffer
	args := append([]string{"-duration", "200", "-workers", "1", "-seed", "3"}, extra...)
	if err := run(args, &out); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	var kept []string
	for _, line := range strings.Split(out.String(), "\n") {
		if !strings.HasPrefix(line, "replay:") && !strings.HasPrefix(line, "latency:") {
			kept = append(kept, line)
		}
	}
	return strings.Join(kept, "\n")
}

// field extracts the integer preceding label in the replay report.
func field(t *testing.T, out, label string) int64 {
	t.Helper()
	m := regexp.MustCompile(`(\d+) ` + label).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no %q count in:\n%s", label, out)
	}
	var v int64
	fmt.Sscan(m[1], &v)
	return v
}

// TestReplayReport drives the replay mode end to end: with one worker the
// report is a pure function of the flags, its counts close the lifecycle
// identity admitted − departed − expired == active, and leaking clients
// show up as expired leases.
func TestReplayReport(t *testing.T) {
	for _, extra := range [][]string{nil, {"-leak", "0.2", "-ttl", "5"}} {
		out := replayOutput(t, extra...)
		if again := replayOutput(t, extra...); again != out {
			t.Errorf("%v: two runs differ:\n%s\n---\n%s", extra, out, again)
		}
		expired := int64(0)
		if extra != nil {
			if expired = field(t, out, "leases expired"); expired == 0 {
				t.Errorf("%v: leaking clients but no lease expired:\n%s", extra, out)
			}
		}
		admitted, departed, active := field(t, out, "admitted"), field(t, out, "departed"), field(t, out, "active")
		if admitted == 0 || admitted-departed-expired != active {
			t.Errorf("%v: admitted %d - departed %d - expired %d != active %d", extra, admitted, departed, expired, active)
		}
	}
}
