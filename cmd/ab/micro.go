package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// microBound is the bound micro mode holds a median to: the bound
// BENCHMARK.json sets on its end-to-end time metrics.
const microBound = 0.25

// sample is one value a benchmark result line reports.
type sample struct {
	name, unit string // the benchmark as printed (with its -cpu suffix) and the unit
	value      float64
}

// runMicro is micro mode: it compiles pkg's test binary in both trees and
// runs the two in alternating pairs, then judges every benchmark × unit.
func runMicro(ctx context.Context, trees [2]string, pkg, bench, cpu string, pairs int, stdout, stderr io.Writer) error {
	bin, err := os.MkdirTemp("", "ab-bin-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(bin)
	var bins [2]string
	for k, tree := range trees {
		bins[k] = filepath.Join(bin, [2]string{"parent", "change"}[k]+".test")
		build := exec.CommandContext(ctx, "go", "test", "-c", "-o", bins[k], pkg)
		build.Dir = tree
		if out, err := build.CombinedOutput(); err != nil {
			return fmt.Errorf("go test -c %s in %s: %v\n%s", pkg, tree, err, out)
		}
	}
	args := []string{"-test.run", "^$", "-test.bench", bench}
	if cpu != "" {
		args = append(args, "-test.cpu", cpu)
	}
	var runs [2][][]sample
	for i := range pairs {
		err := inPair(i, trees, func(k int, tree string) error {
			cmd := exec.CommandContext(ctx, bins[k], args...)
			cmd.Dir = filepath.Join(tree, pkg) // where go test runs the binary
			var out, errOut bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, &errOut
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%v:\n%s%s", err, out.String(), errOut.String())
			}
			s := parseBench(out.String())
			if len(s) == 0 {
				return fmt.Errorf("no benchmark matched %q:\n%s", bench, out.String())
			}
			runs[k] = append(runs[k], s)
			return nil
		})
		if err != nil {
			return fmt.Errorf("%s pair %d: %w", pkg, i+1, err)
		}
		fmt.Fprintf(stderr, "ab: %s pair %d/%d done\n", pkg, i+1, pairs)
	}
	return microReport(pkg, runs[0], runs[1], stdout, stderr)
}

// microReport prints one line per benchmark × unit, in the order the
// first parent run reports them. A unit that is neither a time nor a rate
// is listed on stderr and not judged.
func microReport(pkg string, parent, change [][]sample, stdout, stderr io.Writer) error {
	for _, s := range parent[0] {
		higher, ok := direction(s.unit)
		if !ok {
			fmt.Fprintf(stderr, "ab: %s %s: %s is neither a time nor a rate, not judged\n", pkg, s.name, s.unit)
			continue
		}
		p, c := pick(parent, s.name, s.unit), pick(change, s.name, s.unit)
		if p == nil || c == nil {
			return fmt.Errorf("%s: a run reported no %s in %s", pkg, s.name, s.unit)
		}
		better := "lower"
		if higher {
			better = "higher"
		}
		unit, _, _ := strings.Cut(s.unit, "/")
		m := metric{Name: s.unit, Unit: unit, Better: better, Bound: microBound}
		fmt.Fprintln(stdout, line(pkg+" "+s.name, m, p, c))
	}
	return nil
}

// pick collects one benchmark's unit across runs; nil if a run lacks it.
func pick(runs [][]sample, name, unit string) []float64 {
	xs := make([]float64, 0, len(runs))
	for _, run := range runs {
		n := len(xs)
		for _, s := range run {
			if s.name == name && s.unit == unit {
				xs = append(xs, s.value)
				break
			}
		}
		if len(xs) == n {
			return nil
		}
	}
	return xs
}

// parseBench reads go test -bench output. A result line is the benchmark's
// name, its iteration count and value–unit pairs; when the benchmark
// printed something of its own, the name stands on a line before it. The
// values kept are ns/op and every custom unit: B/op, allocs/op and MB/s
// are not.
func parseBench(out string) []sample {
	var got []sample
	name := ""
	for _, ln := range strings.Split(out, "\n") {
		f := strings.Fields(ln)
		if len(f) > 0 && strings.HasPrefix(f[0], "Benchmark") {
			name, f = f[0], f[1:]
		}
		if name == "" || len(f) < 3 || len(f)%2 == 0 {
			continue
		}
		if _, err := strconv.Atoi(f[0]); err != nil {
			continue
		}
		var line []sample
		for i := 1; i < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				line = nil
				break
			}
			switch f[i+1] {
			case "B/op", "allocs/op", "MB/s":
				continue
			}
			line = append(line, sample{name: name, unit: f[i+1], value: v})
		}
		got = append(got, line...)
	}
	return got
}

// direction says whether higher values of unit are better: a time (ns,
// us, µs, ms or s per something) is lower-is-better, a rate (something per
// second) higher-is-better, and anything else has no direction (ok false).
func direction(unit string) (higher, ok bool) {
	isTime := func(u string) bool {
		switch u {
		case "ns", "us", "µs", "ms", "s":
			return true
		}
		return false
	}
	num, den, _ := strings.Cut(unit, "/")
	switch {
	case isTime(num):
		return false, true
	case isTime(den):
		return true, true
	}
	return false, false
}
