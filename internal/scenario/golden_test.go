package scenario

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenScenarioReports is tier-1's scenario check: every built-in
// scenario except the impulsive ensembles (seconds each; the scenario tier,
// TestScenarioSuite, runs them) grades to its expectation and reproduces
// its committed reports byte for byte.
func TestGoldenScenarioReports(t *testing.T) {
	checkReports(t, func(cfg *Config) bool { return cfg.Workload.Kind != WorkloadImpulsive })
}

// checkReports runs each config under scenarios/ that include admits,
// asserts that it grades to its declared expect, and diffs its markdown
// report and JSON verdict against results/scenario/, the one committed copy
// (`make scenarios` writes it). The same config and seeds reproduce both
// byte for byte on any machine — a network cell's wall-clock percentiles
// are kept out of them — so any diff is a behavior change or lost
// determinism.
func checkReports(t *testing.T, include func(*Config) bool) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no scenario configs: %v", err)
	}
	for _, path := range paths {
		cfg, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if !include(cfg) {
			continue
		}
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			res, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Matched() {
				t.Errorf("verdict %s, expected %s; notes:", res.Verdict, cfg.Expect)
				for _, n := range res.Notes {
					t.Logf("  %s", n)
				}
			}
			js, err := res.JSONVerdict()
			if err != nil {
				t.Fatal(err)
			}
			for ext, got := range map[string]string{".md": res.Markdown(), ".json": string(js)} {
				path := filepath.Join("..", "..", "results", "scenario", cfg.Name+ext)
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if got != string(want) {
					t.Errorf("%s drifted from the committed report (regenerate with `make scenarios`).\n--- got ---\n%s\n--- want ---\n%s",
						path, got, want)
				}
			}
		})
	}
}
