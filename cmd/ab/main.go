// Command ab is the alternating A/B verdict of the repo benchmark. It
// exports a reference revision (the parent) into a directory of its own
// and runs benchmark/run.sh there and in the working tree (the change), in
// pairs on the seeds given: odd pairs run the parent first, even pairs the
// change. For each workload and each end-to-end metric of BENCHMARK.json
// it prints one line: every pair as parent/change, the medians and
// quartiles, how many pairs the change is ahead in, and one verdict —
// resolved better, resolved worse or not resolved.
//
//	ab -ref HEAD -workload cluster-churn -seeds 101-110
//
// Every run lasts BENCHMARK.json's run_seconds, the length the verdict
// rule is stated for; a quick look at another length is a direct
// benchmark/run.sh call. The verdict rule is the benchmark's: at least
// nine of ten pairs (and at least ten pairs), and medians further apart
// than the parent's interquartile range. The better direction is
// BENCHMARK.json's "better". A second outcome holds the median against
// the metric's bound: within bound, past bound, or unresolved when the
// parent's own spread is wider than the bound.
//
// Micro mode, selected by -pkg, holds a package's Go benchmarks to the
// same rules:
//
//	ab -ref HEAD -pkg ./internal/loadgen -bench '^BenchmarkSchedule$' -cpu 1,2 -pairs 10
//
// It compiles the package's test binary in both trees (go test -c), runs
// the two binaries in alternating pairs as above, and prints one line per
// benchmark, -cpu value and unit: ns/op and every custom unit the
// benchmark reports. Time units are lower-is-better, rates (a unit per
// second) higher-is-better; the bound is microBound.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	switch {
	case errors.Is(err, flag.ErrHelp):
		os.Exit(2)
	case err != nil:
		fmt.Fprintln(os.Stderr, "ab:", err)
		os.Exit(1)
	}
}

// benchmarkFile is the part of BENCHMARK.json ab reads.
type benchmarkFile struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
}

// result is the JSON line a benchmark run prints last.
type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("ab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		ref       = fs.String("ref", "HEAD", "revision the working tree is compared against")
		workloads = fs.String("workload", "", "comma-separated workloads (default: every workload in BENCHMARK.json)")
		seedList  = fs.String("seeds", "1-10", "seeds, one pair each: a comma-separated list of seeds and ranges such as 41-50")
		dir       = fs.String("dir", "", "empty or missing directory to export -ref into (default: a temporary directory, removed at exit)")
		pkg       = fs.String("pkg", "", "micro mode: the package directory whose benchmarks are compared, such as ./internal/loadgen")
		bench     = fs.String("bench", ".", "micro mode: the benchmarks to run (go test -bench)")
		cpu       = fs.String("cpu", "", "micro mode: GOMAXPROCS values to run each benchmark at (go test -cpu)")
		pairs     = fs.Int("pairs", 10, "micro mode: alternating pairs to run")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	micro := *pkg != ""
	var misplaced error
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "workload", "seeds":
			if micro {
				misplaced = fmt.Errorf("-%s does not apply with -pkg", f.Name)
			}
		case "bench", "cpu", "pairs":
			if !micro {
				misplaced = fmt.Errorf("-%s applies only with -pkg", f.Name)
			}
		}
	})
	if misplaced != nil {
		return misplaced
	}
	if micro && (*pairs < 1 || !strings.HasPrefix(*pkg, "./")) {
		return fmt.Errorf("micro mode needs -pairs >= 1 and a -pkg directory starting ./, not %d and %q", *pairs, *pkg)
	}
	var seeds []uint64
	if !micro {
		var err error
		if seeds, err = parseSeeds(*seedList); err != nil {
			return err
		}
	}
	top, err := git(ctx, "", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	var spec benchmarkFile
	if !micro {
		if spec, err = readBenchmark(top); err != nil {
			return err
		}
	}

	rev, err := git(ctx, top, "rev-parse", "--verify", *ref+"^{commit}")
	if err != nil {
		return err
	}
	parentDir := *dir
	if parentDir == "" {
		if parentDir, err = os.MkdirTemp("", "ab-ref-"); err != nil {
			return err
		}
		defer os.RemoveAll(parentDir)
	} else if entries, err := os.ReadDir(parentDir); err == nil && len(entries) > 0 {
		return fmt.Errorf("-dir %s is not empty", parentDir)
	} else if err := os.MkdirAll(parentDir, 0o755); err != nil {
		return err
	}
	if err := export(ctx, top, rev, parentDir); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "ab: parent %.12s in %s, change = the working tree %s\n", rev, parentDir, top)
	trees := [2]string{parentDir, top}
	if micro {
		return runMicro(ctx, trees, *pkg, *bench, *cpu, *pairs, stdout, stderr)
	}

	names := strings.Split(*workloads, ",")
	if *workloads == "" {
		names = names[:0]
		for _, w := range spec.Workloads {
			names = append(names, w.Name)
		}
	}
	for _, w := range names {
		var parent, change []result
		for i, seed := range seeds {
			var got [2]result
			err := inPair(i, trees, func(k int, tree string) (err error) {
				got[k], err = bench1(ctx, tree, w, seed, spec.RunSeconds)
				return err
			})
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			parent, change = append(parent, got[0]), append(change, got[1])
			fmt.Fprintf(stderr, "ab: %s pair %d/%d (seed %d) done\n", w, i+1, len(seeds), seed)
		}
		for _, m := range spec.EndToEnd {
			p, c := values(parent, m.Name), values(change, m.Name)
			if p == nil || c == nil {
				return fmt.Errorf("%s: a run reported no %s", w, m.Name)
			}
			fmt.Fprintln(stdout, line(w, m, p, c))
		}
		fmt.Fprintf(stdout, "%s failed ops: parent %s, change %s\n", w, failures(parent), failures(change))
	}
	return nil
}

// readBenchmark reads BENCHMARK.json at the top of the working tree.
func readBenchmark(top string) (benchmarkFile, error) {
	var bench benchmarkFile
	raw, err := os.ReadFile(filepath.Join(top, "BENCHMARK.json"))
	if err != nil {
		return bench, err
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		return bench, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if !(bench.RunSeconds > 0) {
		return bench, fmt.Errorf("BENCHMARK.json: run_seconds %g must be positive", bench.RunSeconds)
	}
	return bench, nil
}

// inPair runs pair i (counted from 0) of trees, the parent's and the
// change's: fn(0, parent) and fn(1, change), the parent first in odd pairs
// (i even) and the change first in even ones.
func inPair(i int, trees [2]string, fn func(k int, tree string) error) error {
	order := [2]int{0, 1}
	if i%2 == 1 {
		order = [2]int{1, 0}
	}
	for _, k := range order {
		if err := fn(k, trees[k]); err != nil {
			return fmt.Errorf("in %s: %w", trees[k], err)
		}
	}
	return nil
}

// parseSeeds reads "41-50" or "3,7,11" or a mix of both.
func parseSeeds(s string) ([]uint64, error) {
	var seeds []uint64
	for _, part := range strings.Split(s, ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.ParseUint(lo, 10, 64)
		b := a
		if err == nil && isRange {
			b, err = strconv.ParseUint(hi, 10, 64)
		}
		if err != nil || b < a {
			return nil, fmt.Errorf("bad seed list %q", s)
		}
		for x := a; x <= b; x++ {
			seeds = append(seeds, x)
		}
	}
	return seeds, nil
}

// git runs git in dir and returns its trimmed standard output.
func git(ctx context.Context, dir string, args ...string) (string, error) {
	cmd := exec.CommandContext(ctx, "git", args...)
	cmd.Dir = dir
	var errOut bytes.Buffer
	cmd.Stderr = &errOut
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(errOut.String()))
	}
	return strings.TrimSpace(string(out)), nil
}

// export writes rev's tree into dir with git archive. The copy is plain
// files, registered nowhere in the repository, so removing dir is the
// whole clean-up; benchmark/run.sh builds into the tree it sits in, so the
// copy and the working tree build and run independently.
func export(ctx context.Context, top, rev, dir string) error {
	archive := exec.CommandContext(ctx, "git", "archive", "--format=tar", rev)
	archive.Dir = top
	untar := exec.CommandContext(ctx, "tar", "-x", "-C", dir)
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return err
	}
	untar.Stdin = pipe
	var archiveErr, untarErr bytes.Buffer // two writers: one buffer each
	archive.Stderr, untar.Stderr = &archiveErr, &untarErr
	if err := archive.Start(); err != nil {
		return err
	}
	err = untar.Run()
	if werr := archive.Wait(); err == nil {
		err = werr
	}
	if err != nil {
		return fmt.Errorf("exporting %.12s into %s: %v: %s%s", rev, dir, err, archiveErr.String(), untarErr.String())
	}
	return nil
}

// bench1 runs one workload once in tree with tracing off and returns the
// result line.
func bench1(ctx context.Context, tree, workload string, seed uint64, seconds float64) (result, error) {
	cmd := exec.CommandContext(ctx, "bash", "benchmark/run.sh", "--workload", workload,
		"--seed", strconv.FormatUint(seed, 10), "--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Dir = tree
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		return result{}, errors.Join(err, fmt.Errorf("no result line: %v\n%s%s", jerr, out.String(), errOut.String()))
	}
	if err != nil || !res.Correct {
		return result{}, fmt.Errorf("run failed (%v, correct %v):\n%s%s", err, res.Correct, out.String(), errOut.String())
	}
	return res, nil
}

// values collects one metric across runs; nil if a run lacks it.
func values(runs []result, name string) []float64 {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		m, ok := r.Metrics[name]
		if !ok {
			return nil
		}
		xs[i] = m.Value
	}
	return xs
}

// failures sums failed over attempted ops across runs.
func failures(runs []result) string {
	var failed, attempted int64
	for _, r := range runs {
		failed, attempted = failed+r.Failed, attempted+r.Attempted
	}
	return fmt.Sprintf("%d of %d", failed, attempted)
}
