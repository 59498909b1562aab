//go:build scenario

package scenario

import (
	"context"
	"path/filepath"
	"testing"
)

// TestScenarioSuite is the `make test-scenario` tier: every built-in
// scenario under scenarios/ must grade to its declared expected verdict.
// The suite includes the impulsive ensembles — the two sqrt2-law points and
// their perfect-knowledge control (the slow cells, over a minute together
// on one core) — which is why this lives
// behind the "scenario" build tag rather than in tier-1; the fast
// scenarios also run in tier-1 through the golden and network-twin tests.
func TestScenarioSuite(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 8 {
		t.Fatalf("expected at least 8 built-in scenarios, found %d", len(paths))
	}
	for _, path := range paths {
		path := path
		name := filepath.Base(path)
		t.Run(name, func(t *testing.T) {
			cfg, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Verdict != cfg.Expect {
				t.Errorf("verdict %s, expected %s; notes:", res.Verdict, cfg.Expect)
				for _, n := range res.Notes {
					t.Logf("  %s", n)
				}
			}
		})
	}
}
