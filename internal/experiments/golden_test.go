package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden experiment tables")

// standardPinned are the runners cheap enough at Standard fidelity (well
// under a second each) to be pinned against the committed artifact itself,
// results/standard/<id>.csv. Every other runner is pinned at Quick under
// testdata/quick/. Both are seed 1, the seed of `cmd/figures` and of the
// committed results.
var standardPinned = map[string]bool{"fig2": true, "fig6": true, "fig9": true, "regimes": true, "abl-theory": true, "gateway": true}

// TestGoldenTheoryTables pins the standardPinned runners at Standard, seed
// 1, against the committed artifact itself.
func TestGoldenTheoryTables(t *testing.T) { goldenTables(t, true) }

// TestSimulationExperimentsQuick pins every other runner at Quick, seed 1,
// under testdata/quick/. Skipped with -short.
func TestSimulationExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments skipped in -short mode")
	}
	goldenTables(t, false)
}

// goldenTables walks the registry, runs each runner on the standard or the
// Quick side of standardPinned, and diffs each of its tables, byte for
// byte, against the CSV `cmd/figures -out` writes for it. Tables are
// deterministic per seed whatever the worker count (the sweep merges rows
// in point order), so any diff is a behavior change — regenerate
// deliberately with `make golden` — or lost determinism. Walking the
// registry means a runner registered tomorrow is pinned without being added
// to a list here.
func goldenTables(t *testing.T, standard bool) {
	for _, r := range Runners() {
		if standardPinned[r.ID] != standard {
			continue
		}
		fid, dir := Quick, filepath.Join("testdata", "quick")
		if standard {
			fid, dir = Standard, filepath.Join("..", "..", "results", "standard")
		}
		t.Run(r.ID, func(t *testing.T) {
			t.Parallel()
			tables, err := r.Run(fid, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, tab := range tables {
				var sb strings.Builder
				if err := tab.WriteCSV(&sb); err != nil {
					t.Fatal(err)
				}
				checkGolden(t, filepath.Join(dir, tab.ID+".csv"), sb.String())
			}
			if r.ID == "fig10" {
				fig10Shape(t, tables[0])
			}
		})
	}
}

func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (regenerate with `make golden`): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from its golden.\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// fig10Shape: at the smallest T_c, memoryless estimation (first row) must
// overflow clearly more often than full memory (last row).
func fig10Shape(t *testing.T, tab *Table) {
	first := tab.Rows[0][1]
	last := tab.Rows[len(tab.Rows)-1][1]
	if !(first > last) {
		t.Errorf("memory should reduce simulated pf at small Tc: %v vs %v", first, last)
	}
}
