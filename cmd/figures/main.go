// Command figures regenerates the paper's evaluation artifacts: the eq. 21
// profile of Section 3 (finite), Figures 5-12, and the
// utilization/limit/regime/ablation studies listed in DESIGN.md.
//
// Usage:
//
//	figures -list
//	figures -run fig5 -fidelity standard
//	figures -all -fidelity quick -out results/
//
// Fidelity quick takes seconds per experiment (with relaxed targets where
// overflow would otherwise be too rare to measure fast), standard minutes,
// full uses the paper's Section 5.2 stopping rules and can take hours for
// the simulation grids. Text tables go to stdout; with -out set, CSV files
// are written alongside.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list available experiments and exit")
		runID    = flag.String("run", "", "comma-separated experiment ids to run")
		all      = flag.Bool("all", false, "run every experiment")
		fidelity = flag.String("fidelity", "quick", "quick | standard | full")
		seed     = flag.Uint64("seed", 1, "master random seed for simulations")
		outDir   = flag.String("out", "", "directory for CSV output (optional)")
		mdPath   = flag.String("md", "", "write a markdown report of all tables to this file (optional)")
	)
	flag.Parse()

	if *list {
		for _, r := range experiments.Runners() {
			fmt.Printf("%-14s %s\n", r.ID, r.Description)
		}
		return
	}

	fid, err := experiments.ParseFidelity(*fidelity)
	if err != nil {
		fatal(err)
	}

	var runners []experiments.Runner
	switch {
	case *all:
		runners = experiments.Runners()
	case *runID != "":
		for _, id := range strings.Split(*runID, ",") {
			id = strings.TrimSpace(id)
			r, ok := experiments.Lookup(id)
			if !ok {
				fatal(fmt.Errorf("unknown experiment %q (use -list)", id))
			}
			runners = append(runners, r)
		}
	default:
		fmt.Fprintln(os.Stderr, "nothing to do: pass -list, -run <ids> or -all")
		os.Exit(2)
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
	}
	var md *os.File
	if *mdPath != "" {
		f, err := os.Create(*mdPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		md = f
		fmt.Fprintf(md, "# Experiment report (%s fidelity, seed %d)\n\n", fid, *seed)
	}

	for _, r := range runners {
		start := time.Now()
		fmt.Fprintf(os.Stderr, "running %s (%s fidelity)...\n", r.ID, fid)
		tables, err := r.Run(fid, *seed)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", r.ID, err))
		}
		fmt.Fprintf(os.Stderr, "%s done in %s\n", r.ID, time.Since(start).Round(time.Millisecond))
		for _, t := range tables {
			if err := t.Fprint(os.Stdout); err != nil {
				fatal(err)
			}
			if md != nil {
				if err := t.WriteMarkdown(md); err != nil {
					fatal(err)
				}
			}
			if *outDir != "" {
				path := filepath.Join(*outDir, t.ID+".csv")
				f, err := os.Create(path)
				if err != nil {
					fatal(err)
				}
				if err := t.WriteCSV(f); err != nil {
					f.Close()
					fatal(err)
				}
				if err := f.Close(); err != nil {
					fatal(err)
				}
				fmt.Fprintf(os.Stderr, "wrote %s\n", path)
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(1)
}
