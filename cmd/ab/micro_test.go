package main

import (
	"bytes"
	"strings"
	"testing"
)

// recordedBench is go test -bench output recorded from BenchmarkSchedule
// at -cpu 1,2 with -benchmem, on a 2-core x86 box. The churn-2 result
// stands on the line after its name, as when a benchmark prints.
const recordedBench = `goos: linux
goarch: amd64
pkg: repro/internal/loadgen
cpu: Intel(R) Xeon(R) Processor
BenchmarkSchedule/churn           	       3	 335638821 ns/op	       192.0 ns/event	65601656 B/op	       5 allocs/op
BenchmarkSchedule/churn-2         	progress: 3 passes
       4	 311452066 ns/op	       178.2 ns/event	65601648 B/op	       5 allocs/op
BenchmarkSchedule/flash-crowd     	   14904	     78854 ns/op	       131.9 ns/event	   51904 B/op	       5 allocs/op
BenchmarkSchedule/flash-crowd-2   	   14053	     84276 ns/op	       140.9 ns/event	   51904 B/op	       5 allocs/op
PASS
`

func TestParseBench(t *testing.T) {
	got := parseBench(recordedBench)
	want := []sample{
		{"BenchmarkSchedule/churn", "ns/op", 335638821}, {"BenchmarkSchedule/churn", "ns/event", 192.0},
		{"BenchmarkSchedule/churn-2", "ns/op", 311452066}, {"BenchmarkSchedule/churn-2", "ns/event", 178.2},
		{"BenchmarkSchedule/flash-crowd", "ns/op", 78854}, {"BenchmarkSchedule/flash-crowd", "ns/event", 131.9},
		{"BenchmarkSchedule/flash-crowd-2", "ns/op", 84276}, {"BenchmarkSchedule/flash-crowd-2", "ns/event", 140.9},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d samples, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sample %d is %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestDirection(t *testing.T) {
	for unit, want := range map[string]string{
		"ns/op": "lower", "ns/event": "lower", "us": "lower", "ms/op": "lower",
		"events/s": "higher", "MB/s": "higher",
		"batch-mean": "", "allocs/decision": "", "flows/op": "",
	} {
		higher, ok := direction(unit)
		got := map[bool]string{false: "lower", true: "higher"}[higher]
		if !ok {
			got = ""
		}
		if got != want {
			t.Errorf("direction(%q) = %q, want %q", unit, got, want)
		}
	}
}

// TestMicroReport judges ten recorded runs a side: the change's churn-2 is
// ahead in every pair by more than the parent's IQR, its flash-crowd
// neither. Every benchmark × unit is one line, in the order the runs print
// them, judged by the workload rule.
func TestMicroReport(t *testing.T) {
	run := func(churn2, flash string) []sample {
		out := strings.Replace(recordedBench, "178.2 ns/event", churn2+" ns/event", 1)
		return parseBench(strings.Replace(out, "131.9 ns/event", flash+" ns/event", 1))
	}
	var parent, change [][]sample
	for i, p := range []string{"178", "185", "170", "196", "203", "194", "191", "188", "180", "199"} {
		c := []string{"104", "94", "105", "125", "110", "116", "99", "121", "108", "112"}[i]
		flash := []string{"131", "133"}[i%2]
		parent, change = append(parent, run(p, flash)), append(change, run(c, []string{"133", "131"}[i%2]))
	}
	var out, errOut bytes.Buffer
	if err := microReport("./internal/loadgen", parent, change, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 8 {
		t.Fatalf("%d lines, want 8:\n%s", len(lines), out.String())
	}
	for i, want := range map[int]string{
		3: "./internal/loadgen BenchmarkSchedule/churn-2 ns/event (ns, lower is better): 178/104, 185/94, ",
		5: "./internal/loadgen BenchmarkSchedule/flash-crowd ns/event (ns, lower is better): 131/133, 133/131, ",
	} {
		if !strings.HasPrefix(lines[i], want) {
			t.Errorf("line %d is %q, want it to start %q", i, lines[i], want)
		}
	}
	if !strings.Contains(lines[3], "change ahead 10 of 10") || !strings.Contains(lines[3], ": "+resolvedBetter+"; ") {
		t.Errorf("churn-2 line %q: want ahead 10 of 10, %s", lines[3], resolvedBetter)
	}
	if !strings.Contains(lines[5], ": "+notResolved+"; ") || !strings.HasSuffix(lines[5], withinBound) {
		t.Errorf("flash-crowd line %q: want %s, %s", lines[5], notResolved, withinBound)
	}
	change[4] = change[4][:2]
	if err := microReport("./internal/loadgen", parent, change, &out, &errOut); err == nil {
		t.Error("a run missing a benchmark was judged")
	}
}
