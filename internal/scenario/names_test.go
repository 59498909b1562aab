package scenario

import (
	"path/filepath"
	"testing"

	"repro/internal/enum"
)

// TestEveryScenarioNameIsUsed holds the scenario language to what its suite
// runs: every name a config can spell in this package's tables must be one
// that at least one committed config under scenarios/ runs under. A grading
// form, model kind or metric lands together with the scenario that uses it,
// so no decoding, validation, grading or report branch exists only for a
// parse-table row. It is the configuration counterpart of the module's
// reach_test.go, which holds exported functions to what programs reach.
//
// Two kinds of table are left out. Verdict is the grader's output: a config
// names one as its expect, but Inconclusive is what an ungradable matrix
// reads, not a result any committed scenario is built to produce. The tables
// other packages own (core.PolicyNames, estimator.ModeNames,
// gateway.DegradedPolicyNames, fault.Mode) are read by programs too —
// cmd/mbacsim -controller, cmd/gateway's flags — so the suite is not the
// only thing that spells them.
func TestEveryScenarioNameIsUsed(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no scenario configs: %v", err)
	}
	used := map[string]map[string]bool{}
	use := func(table, name string) {
		if used[table] == nil {
			used[table] = map[string]bool{}
		}
		used[table][name] = true
	}
	var useModel func(m *ModelSpec)
	useModel = func(m *ModelSpec) {
		use("model kind", m.Kind)
		for i := range m.Mix {
			useModel(&m.Mix[i].Model)
		}
	}
	for _, p := range paths {
		// Load fills the defaults, so an omitted name counts as the one the
		// scenario runs under.
		cfg, err := Load(p)
		if err != nil {
			t.Fatal(err)
		}
		w := cfg.Workload
		use("workload kind", w.Kind)
		use("target", cfg.Target)
		if w.Model != nil {
			useModel(w.Model)
		}
		if w.Shift != nil {
			useModel(&w.Shift.Model)
		}
		for _, a := range cfg.Arms {
			if a.Plan != "" {
				use("plan", a.Plan)
			}
		}
		h := cfg.Check
		use("hypothesis kind", h.Kind.String())
		if iv := h.Interval; iv != nil {
			use("reference", iv.Reference)
			use("interval mode", iv.Mode.String())
		}
		if d := h.Dominance; d != nil {
			use("metric", d.Metric.String())
		}
		if inv := h.Invariant; inv != nil {
			for _, k := range inv.Checks {
				use("invariant", k.String())
			}
			for _, b := range inv.Bounds {
				use("metric", b.Metric.String())
			}
		}
	}
	unused(t, "workload kind", workloadKindNames, used)
	unused(t, "target", targetNames, used)
	unused(t, "model kind", modelKindNames, used)
	unused(t, "plan", planNames, used)
	unused(t, "hypothesis kind", hypothesisKindNames, used)
	unused(t, "reference", referenceNames, used)
	unused(t, "interval mode", intervalModeNames, used)
	unused(t, "metric", metricNames, used)
	unused(t, "invariant", invariantKindNames, used)
}

// unused fails the test for each name of table that no scenario used.
func unused[T ~int](t *testing.T, table string, names *enum.Names[T], used map[string]map[string]bool) {
	t.Helper()
	for _, v := range names.All() {
		if name := names.String(v); !used[table][name] {
			t.Errorf("%s %q: no config under scenarios/ uses it; delete it, or add the scenario that does", table, name)
		}
	}
}
