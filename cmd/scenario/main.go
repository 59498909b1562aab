// Command scenario runs declarative scenario configs (internal/scenario)
// and writes a FINDINGS-style markdown report plus a machine-readable JSON
// verdict per scenario. Exit status is nonzero on any execution error, and
// — with -strict — when any scenario grades to a verdict different from
// its config's "expect" field. `make scenarios` runs it over the built-in
// suite to write results/scenario/, the copy the scenario tests diff
// against. A network cell's wall-clock served percentiles are printed
// here, beside its status line; they are not part of the report.
//
// Usage:
//
//	scenario [-dir scenarios] [-out results/scenario] [-run substr] [-strict] [-v]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/scenario"
)

func main() {
	dir := flag.String("dir", "scenarios", "directory of scenario *.json configs")
	out := flag.String("out", "results/scenario", "directory for FINDINGS reports and JSON verdicts")
	run := flag.String("run", "", "only run scenarios whose name contains this substring")
	strict := flag.Bool("strict", false, "exit nonzero when a verdict differs from the scenario's expectation")
	verbose := flag.Bool("v", false, "print each report to stdout as well")
	flag.Parse()

	files, err := filepath.Glob(filepath.Join(*dir, "*.json"))
	if err != nil {
		fatal(err)
	}
	sort.Strings(files)
	if len(files) == 0 {
		fatal(fmt.Errorf("no scenario configs under %s", *dir))
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}

	ctx := context.Background()
	ran, mismatched := 0, 0
	for _, f := range files {
		cfg, err := scenario.Load(f)
		if err != nil {
			fatal(err)
		}
		if *run != "" && !strings.Contains(cfg.Name, *run) {
			continue
		}
		start := time.Now()
		res, err := scenario.Run(ctx, cfg)
		if err != nil {
			fatal(err)
		}
		ran++
		md := res.Markdown()
		if err := os.WriteFile(filepath.Join(*out, cfg.Name+".md"), []byte(md), 0o644); err != nil {
			fatal(err)
		}
		js, err := res.JSONVerdict()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(filepath.Join(*out, cfg.Name+".json"), js, 0o644); err != nil {
			fatal(err)
		}
		status := "as expected"
		if !res.Matched() {
			mismatched++
			status = fmt.Sprintf("MISMATCH (expected %s)", cfg.Expect)
		}
		fmt.Printf("%-28s %-13s %-26s %6.1fs\n", cfg.Name, res.Verdict, status, time.Since(start).Seconds())
		for _, c := range res.Cells {
			if c.ServedP99 > 0 {
				fmt.Printf("  seed %d/%s: served p50 %.4g s, p99 %.4g s (wall clock, not in the report)\n", c.Seed, c.Arm, c.ServedP50, c.ServedP99)
			}
		}
		if *verbose {
			fmt.Println(md)
		}
	}
	if ran == 0 {
		fatal(fmt.Errorf("no scenarios matched -run %q", *run))
	}
	fmt.Printf("%d scenario(s), %d mismatched; reports under %s\n", ran, mismatched, *out)
	if *strict && mismatched > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "scenario:", err)
	os.Exit(1)
}
