package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/estimator"
	"repro/internal/theory"
	"repro/internal/traffic"
)

// minimal returns a valid churn scenario that individual cases then break.
func minimal() string {
	return `{
		"name": "t", "seeds": [1],
		"workload": {"kind": "churn", "lambda": 1, "hold": 5, "duration": 10, "svr": 0.3},
		"gateway": {"capacity": 10, "pq": 0.01},
		"arms": [{"name": "a", "policy": "certainty-equivalent"}],
		"check": {"kind": "interval", "interval": {"reference": "pq", "mode": "at-most"}}
	}`
}

// impulsive returns a valid impulsive scenario that individual cases then
// break.
func impulsive() string {
	return `{
		"name": "t", "seeds": [1],
		"workload": {"kind": "impulsive", "replications": 10, "svr": 0.3},
		"gateway": {"capacity": 10, "pq": 0.01},
		"arms": [{"name": "a", "policy": "certainty-equivalent"}],
		"check": {"kind": "invariant", "invariant": {"checks": ["lifecycle"]}}
	}`
}

// continuous returns a valid continuous-load scenario that individual
// cases then break.
func continuous() string {
	return `{
		"name": "t", "seeds": [1],
		"workload": {"kind": "continuous", "hold": 300, "duration": 600, "svr": 0.3},
		"gateway": {"capacity": 100, "pq": 0.01},
		"arms": [{"name": "a", "policy": "certainty-equivalent"}],
		"check": {"kind": "interval", "interval": {"reference": "pq", "mode": "at-most"}}
	}`
}

func TestParseRejections(t *testing.T) {
	imp := func(old, new string) string { return strings.Replace(impulsive(), old, new, 1) }
	cont := func(old, new string) string { return strings.Replace(continuous(), old, new, 1) }
	const lifecycle = `"check": {"kind": "invariant", "invariant": {"checks": ["lifecycle"]}}`
	const interval = `"check": {"kind": "interval", "interval": {"reference": "pq", "mode": "at-most"}}`
	cases := []struct {
		name string
		json string
		want string // substring of the positional error
	}{
		{"unknown-top-field", `{"name": "t", "bogus": 1}`, `"bogus"`},
		{"trailing-document", minimal() + `{}`, "trailing data"},
		{"nan-rate", strings.Replace(minimal(), `"lambda": 1`, `"lambda": NaN`, 1), "invalid character"},
		{"inf-via-exponent", strings.Replace(minimal(), `"lambda": 1`, `"lambda": 1e999`, 1), "workload.lambda"},
		{"negative-hold", strings.Replace(minimal(), `"hold": 5`, `"hold": -5`, 1), "workload.hold: -5 must be positive"},
		{"no-seeds", strings.Replace(minimal(), `"seeds": [1]`, `"seeds": []`, 1), "at least one seed"},
		{"dup-seeds", strings.Replace(minimal(), `"seeds": [1]`, `"seeds": [1, 1]`, 1), "seeds[1]: duplicate seed"},
		{"unknown-target", strings.Replace(minimal(), `"seeds": [1]`, `"seeds": [1], "target": "carrier-pigeon"`, 1), `target: unknown substrate "carrier-pigeon" (want in-process or network)`},
		{"unknown-policy", strings.Replace(minimal(), `"policy": "certainty-equivalent"`, `"policy": "vibes"`, 1),
			`arms[0].policy: unknown policy "vibes" (want certainty-equivalent, perfect-knowledge, peak-rate or measured-sum)`},
		{"peak-rate-on-default-rcbr", strings.Replace(minimal(), `"policy": "certainty-equivalent"`, `"policy": "peak-rate"`, 1),
			`arms[0].peak is required: the workload's model declares no finite peak`},
		{"peak-rate-on-rcbr-mixture", strings.Replace(strings.Replace(minimal(), `"policy": "certainty-equivalent"`, `"policy": "peak-rate"`, 1),
			`"svr": 0.3`,
			`"model": {"kind": "mixture", "mix": [
				{"weight": 1, "model": {"kind": "rcbr", "svr": 0.5}},
				{"weight": 1, "model": {"kind": "rcbr", "svr": 0.3}}
			]}`, 1),
			`arms[0].peak is required: the workload's model declares no finite peak`},
		{"peak-rate-on-impulsive", imp(`"policy": "certainty-equivalent"}]`, `"policy": "certainty-equivalent"}, {"name": "b", "policy": "peak-rate"}]`),
			`arms[1].peak is required: the workload's model declares no finite peak`},
		{"unknown-estimator", strings.Replace(minimal(), `"pq": 0.01`, `"pq": 0.01, "estimator": "psychic"`, 1), `gateway.estimator: estimator: unknown mode "psychic"`},
		{"unknown-verdict", strings.Replace(minimal(), `"name": "t"`, `"name": "t", "expect": "Shrug"`, 1), `"Shrug"`},
		{"unknown-fault-mode", strings.Replace(minimal(), `"seeds": [1]`, `"seeds": [1], "faults": [{"mode": "gremlins", "from": 1, "to": 2}]`, 1), "faults[0]"},
		{"impulsive-with-churn-fields", imp(`"svr": 0.3`, `"svr": 0.3, "lambda": 1`), "churn fields"},
		{"impulsive-with-tc", imp(`"svr": 0.3`, `"svr": 0.3, "tc": 2`), "churn fields"},
		{"impulsive-with-tick", imp(`"svr": 0.3`, `"svr": 0.3, "tick": 0.5`), "churn fields"},
		{"impulsive-with-arrival-cv", imp(`"svr": 0.3`, `"svr": 0.3, "arrival_cv": 1.5`), "churn fields"},
		{"network-needs-churn", imp(`"seeds": [1]`, `"seeds": [1], "target": "network"`), "network substrate requires a churn workload"},
		{"two-hypotheses", strings.Replace(minimal(),
			`"check": {"kind": "interval", "interval": {"reference": "pq", "mode": "at-most"}}`,
			`"check": {"kind": "interval", "interval": {"reference": "pq", "mode": "at-most"}, "invariant": {"checks": ["lifecycle"]}}`, 1),
			"exactly one of"},
		{"substrate-identity-in-process", strings.Replace(minimal(),
			`"check": {"kind": "interval", "interval": {"reference": "pq", "mode": "at-most"}}`,
			`"check": {"kind": "invariant", "invariant": {"checks": ["substrate-identity"]}}`, 1),
			"substrate-identity requires the network target"},
		{"empty-invariant", strings.Replace(minimal(),
			`"check": {"kind": "interval", "interval": {"reference": "pq", "mode": "at-most"}}`,
			`"check": {"kind": "invariant", "invariant": {}}`, 1),
			"at least one check or bound"},
		{"bound-nonpositive-ceiling", strings.Replace(minimal(),
			`"check": {"kind": "interval", "interval": {"reference": "pq", "mode": "at-most"}}`,
			`"check": {"kind": "invariant", "invariant": {"bounds": [{"metric": "admitted", "at_most": 0}]}}`, 1),
			"bounds[0].at_most"},
		{"served-metric-in-process", strings.Replace(minimal(),
			`"check": {"kind": "interval", "interval": {"reference": "pq", "mode": "at-most"}}`,
			`"check": {"kind": "invariant", "invariant": {"bounds": [{"metric": "served-p99", "at_most": 0.05}]}}`, 1),
			"served-p99 requires the network target"},
		{"nested-mixture", strings.Replace(minimal(),
			`"svr": 0.3`,
			`"model": {"kind": "mixture", "mix": [
				{"weight": 1, "model": {"kind": "mixture", "mix": []}},
				{"weight": 1, "model": {"kind": "rcbr", "svr": 0.3}}
			]}`, 1),
			"mixtures do not nest"},
		{"cluster-of-one", strings.Replace(minimal(),
			`"gateway": {"capacity": 10, "pq": 0.01}`,
			`"gateway": {"capacity": 10, "pq": 0.01}, "cluster": {"instances": 1}`, 1),
			"cluster.instances: 1 must be at least 2"},
		// Placement is least-loaded, and a cluster names no policy: even
		// that one is an unknown field.
		{"cluster-unknown-policy", strings.Replace(minimal(),
			`"gateway": {"capacity": 10, "pq": 0.01}`,
			`"gateway": {"capacity": 10, "pq": 0.01}, "cluster": {"instances": 3, "policy": "dartboard"}`, 1),
			`unknown field "policy"`},
		{"cluster-policy-field", strings.Replace(minimal(),
			`"gateway": {"capacity": 10, "pq": 0.01}`,
			`"gateway": {"capacity": 10, "pq": 0.01}, "cluster": {"instances": 3, "policy": "least-loaded"}`, 1),
			`unknown field "policy"`},
		{"cluster-drain-outside-schedule", strings.Replace(minimal(),
			`"gateway": {"capacity": 10, "pq": 0.01}`,
			`"gateway": {"capacity": 10, "pq": 0.01}, "cluster": {"instances": 3, "drain_at": 10}`, 1),
			"cluster.drain_at"},
		{"cluster-drain-instance-range", strings.Replace(minimal(),
			`"gateway": {"capacity": 10, "pq": 0.01}`,
			`"gateway": {"capacity": 10, "pq": 0.01}, "cluster": {"instances": 3, "drain_at": 5, "drain_instance": 3}`, 1),
			"cluster.drain_instance: 3 out of range"},
		{"cluster-with-faults", strings.Replace(minimal(),
			`"gateway": {"capacity": 10, "pq": 0.01}`,
			`"gateway": {"capacity": 10, "pq": 0.01}, "cluster": {"instances": 3}, "faults": [{"mode": "nan", "from": 1, "to": 2}]`, 1),
			"fault windows are not supported with a cluster topology"},
		{"migrated-flows-without-cluster", strings.Replace(minimal(),
			`"check": {"kind": "interval", "interval": {"reference": "pq", "mode": "at-most"}}`,
			`"check": {"kind": "invariant", "invariant": {"checks": ["migrated-flows"]}}`, 1),
			"migrated-flows requires a cluster topology"},
		{"memoryless-with-memory", strings.Replace(minimal(),
			`"pq": 0.01`, `"pq": 0.01, "memory": 5`, 1),
			"gateway.memory: not valid for the memoryless estimator"},
		{"aggregate-negative-memory", strings.Replace(minimal(),
			`"pq": 0.01`, `"pq": 0.01, "estimator": "aggregate", "memory": -1`, 1),
			"gateway.memory: -1 must be non-negative"},
		{"adaptive-needs-retunable", strings.Replace(minimal(),
			`"pq": 0.01`, `"pq": 0.01, "adaptive": true`, 1),
			`adaptive measurement requires a retunable estimator (exponential, window or aggregate), not "memoryless"`},
		{"adaptive-needs-churn", imp(`"pq": 0.01`, `"pq": 0.01, "estimator": "aggregate", "adaptive": true`), "adaptive measurement requires a churn workload"},
		{"arm-unknown-degraded", strings.Replace(minimal(),
			`"policy": "certainty-equivalent"`,
			`"policy": "certainty-equivalent", "degraded": "panic"`, 1),
			`arms[0].degraded: gateway: unknown degraded policy "panic" (want freeze, peak-rate or reject-all)`},
		{"unknown-workload-kind", strings.Replace(minimal(), `"kind": "churn"`, `"kind": "trickle"`, 1),
			`workload.kind: unknown kind "trickle" (want impulsive, churn or continuous)`},
		{"unknown-reference", strings.Replace(minimal(), `"reference": "pq"`, `"reference": "vibes"`, 1),
			`check.interval.reference: unknown reference "vibes" (want sqrt2-law, pq or masking)`},
		{"arm-memory-on-memoryless", strings.Replace(minimal(),
			`"policy": "certainty-equivalent"`,
			`"policy": "certainty-equivalent", "memory": 5`, 1),
			"arms[0].memory: not valid for the memoryless estimator"},
		{"shift-outside-schedule", strings.Replace(minimal(),
			`"svr": 0.3`,
			`"svr": 0.3, "shift": {"at": 20, "model": {"kind": "rcbr", "svr": 0.3}}`, 1),
			"workload.shift.at: 20 must fall inside the schedule"},
		{"shift-bad-model", strings.Replace(minimal(),
			`"svr": 0.3`,
			`"svr": 0.3, "shift": {"at": 5, "model": {"kind": "tarot"}}`, 1),
			`workload.shift.model.kind: unknown model "tarot" (want rcbr or mixture)`},
		{"impulsive-with-shift", imp(`"svr": 0.3`, `"svr": 0.3, "shift": {"at": 5, "model": {"kind": "rcbr", "svr": 0.3}}`), "churn fields"},
		{"masking-needs-churn", imp(lifecycle, `"check": {"kind": "interval", "interval": {"reference": "masking", "mode": "covers"}}`),
			"masking reference requires a churn workload"},
		{"grade-after-outside-schedule", strings.Replace(minimal(),
			`{"reference": "pq", "mode": "at-most"}`,
			`{"reference": "pq", "mode": "at-most", "grade_after": 10}`, 1),
			"grade_after: 10 must fall inside the schedule"},
		{"grade-after-negative", strings.Replace(minimal(),
			`{"reference": "pq", "mode": "at-most"}`,
			`{"reference": "pq", "mode": "at-most", "grade_after": -1}`, 1),
			"check.interval.grade_after"},
		{"grade-after-needs-churn", imp(lifecycle, `"check": {"kind": "interval", "interval": {"reference": "pq", "mode": "at-most", "grade_after": 5}}`),
			"grade_after: requires a churn workload"},
		{"dominance-unknown-arm", strings.Replace(strings.Replace(minimal(),
			`"arms": [{"name": "a", "policy": "certainty-equivalent"}]`,
			`"arms": [{"name": "a", "policy": "certainty-equivalent"}, {"name": "b", "policy": "peak-rate", "peak": 2}]`, 1),
			`"check": {"kind": "interval", "interval": {"reference": "pq", "mode": "at-most"}}`,
			`"check": {"kind": "dominance", "dominance": {"metric": "admitted", "a": "a", "b": "ghost"}}`, 1),
			`dominance.b: unknown arm "ghost"`},

		{"continuous-needs-hold", cont(`"hold": 300`, `"hold": 0`), "workload.hold: 0 must be positive"},
		{"continuous-on-network", cont(`"seeds": [1]`, `"seeds": [1], "target": "network"`), "target: the network substrate requires a churn workload"},
		{"continuous-with-cluster", cont(`"pq": 0.01}`, `"pq": 0.01}, "cluster": {"instances": 3}`), "cluster: a cluster topology requires a churn workload"},
		{"continuous-with-faults", cont(`"seeds": [1]`, `"seeds": [1], "faults": [{"mode": "nan", "from": 1, "to": 2}]`), "faults: fault windows require a churn workload"},
		{"continuous-arm-adaptive", strings.Replace(cont(`"policy": "certainty-equivalent"`, `"policy": "certainty-equivalent", "adaptive": true`),
			`"pq": 0.01`, `"pq": 0.01, "estimator": "window", "memory": 5`, 1),
			"arms[0]: adaptive measurement requires a churn workload"},
		{"continuous-arm-degraded", cont(`"policy": "certainty-equivalent"`, `"policy": "certainty-equivalent", "degraded": "reject-all"`),
			"arms[0].degraded: not valid for a continuous workload"},
		{"continuous-aggregate-needs-memory", cont(`"pq": 0.01`, `"pq": 0.01, "estimator": "aggregate"`),
			"arms[0].memory: the aggregate estimator needs a positive memory on a continuous workload"},
		{"continuous-rejected-flows", cont(interval, `"check": {"kind": "invariant", "invariant": {"checks": ["lifecycle", "rejected-flows"]}}`),
			"check.invariant.checks[1]: a continuous workload does not produce rejected-flows"},
		{"continuous-expired-flows", cont(interval, `"check": {"kind": "invariant", "invariant": {"checks": ["expired-flows"]}}`),
			"check.invariant.checks[0]: a continuous workload does not produce expired-flows"},
		{"continuous-bound-metric", cont(interval, `"check": {"kind": "invariant", "invariant": {"bounds": [{"metric": "admitted", "at_most": 1e9}, {"metric": "storm-admitted", "at_most": 1}]}}`),
			"check.invariant.bounds[1].metric: a continuous workload does not produce storm-admitted"},
		{"continuous-dominance-metric", strings.Replace(cont(interval, `"check": {"kind": "dominance", "dominance": {"metric": "served-p50", "a": "a", "b": "b"}}`),
			`"policy": "certainty-equivalent"}`, `"policy": "certainty-equivalent"}, {"name": "b", "policy": "perfect-knowledge"}`, 1),
			"check.dominance.metric: a continuous workload does not produce served-p50"},
		{"continuous-masking", cont(`"reference": "pq"`, `"reference": "masking"`), "masking reference requires a churn workload"},
		{"continuous-grade-after", cont(`"mode": "at-most"`, `"mode": "at-most", "grade_after": 5`), "grade_after: requires a churn workload"},
		{"plan-unknown", cont(`"policy": "certainty-equivalent"`, `"policy": "certainty-equivalent", "plan": "hope"`), `arms[0].plan: unknown plan "hope" (want eq15 or robust)`},
		{"plan-eq15-off-impulsive", strings.Replace(minimal(), `"policy": "certainty-equivalent"`, `"policy": "certainty-equivalent", "plan": "eq15"`, 1),
			"arms[0].plan: eq15 requires an impulsive workload"},
		{"plan-robust-off-continuous", strings.Replace(minimal(), `"policy": "certainty-equivalent"`, `"policy": "certainty-equivalent", "plan": "robust"`, 1),
			"arms[0].plan: robust requires a continuous workload"},
		{"plan-on-perfect-knowledge", cont(`"policy": "certainty-equivalent"`, `"policy": "perfect-knowledge", "plan": "robust"`),
			"arms[0].plan: only the certainty-equivalent policy takes a plan, not perfect-knowledge"},
		{"plan-robust-with-estimator", strings.Replace(cont(`"policy": "certainty-equivalent"`, `"policy": "certainty-equivalent", "plan": "robust", "memory": 30`),
			`"pq": 0.01`, `"pq": 0.01, "estimator": "window", "memory": 5`, 1),
			"arms[0].plan: robust sets the estimator and its memory"},
		{"plan-robust-with-memory", strings.Replace(cont(`"policy": "certainty-equivalent"`, `"policy": "certainty-equivalent", "plan": "robust", "memory": 30`),
			`"pq": 0.01`, `"pq": 0.01, "estimator": "exponential", "memory": 10`, 1),
			"arms[0].plan: robust sets the estimator and its memory"},
	}
	// Fields and names the language once had, and no scenario ran, are
	// refused as unknown like any typo.
	for _, r := range []struct{ name, old, new, want string }{
		{"gateway-th", `"pq": 0.01`, `"pq": 0.01, "th": 5`, `unknown field "th"`},
		{"arm-estimator", `"policy": "certainty-equivalent"`, `"policy": "certainty-equivalent", "estimator": "window"`, `unknown field "estimator"`},
		{"interval-value", `"mode": "at-most"`, `"mode": "at-most", "value": 0.5`, `unknown field "value"`},
		{"model-rate", `"svr": 0.3`, `"model": {"kind": "rcbr", "svr": 0.3, "rate": 1}`, `unknown field "rate"`},
		{"model-peak", `"svr": 0.3`, `"model": {"kind": "rcbr", "svr": 0.3, "peak": 2}`, `unknown field "peak"`},
		{"model-on-time", `"svr": 0.3`, `"model": {"kind": "rcbr", "svr": 0.3, "on_time": 1}`, `unknown field "on_time"`},
		{"model-off-time", `"svr": 0.3`, `"model": {"kind": "rcbr", "svr": 0.3, "off_time": 1}`, `unknown field "off_time"`},
		{"dominance-relation", interval, `"check": {"kind": "dominance", "dominance": {"metric": "admitted", "a": "a", "b": "a", "relation": "greater"}}`, `unknown field "relation"`},
		{"model-onoff", `"svr": 0.3`, `"model": {"kind": "onoff"}`, `unknown model "onoff"`},
		{"model-constant", `"svr": 0.3`, `"model": {"kind": "constant"}`, `unknown model "constant"`},
		{"reference-value", `"reference": "pq"`, `"reference": "value"`, `unknown reference "value"`},
		{"mode-at-least", `"mode": "at-most"`, `"mode": "at-least"`, `unknown interval mode "at-least"`},
	} {
		cases = append(cases, struct{ name, json, want string }{"removed-" + r.name, strings.Replace(minimal(), r.old, r.new, 1), r.want})
	}
	for _, m := range []string{"rejected", "expired", "degraded-ticks", "utilization"} {
		cases = append(cases, struct{ name, json, want string }{"removed-metric-" + m,
			strings.Replace(minimal(), interval, `"check": {"kind": "invariant", "invariant": {"bounds": [{"metric": "`+m+`", "at_most": 1}]}}`, 1),
			`unknown metric "` + m + `"`})
	}
	// Every field a continuous cell would silently ignore is refused by path.
	for _, f := range []struct{ path, field string }{
		{"workload.replications", `"replications": 10`}, {"workload.lambda", `"lambda": 1`},
		{"workload.tick", `"tick": 0.5`}, {"workload.arrival_cv", `"arrival_cv": 2`},
		{"workload.crowd", `"crowd": {"factor": 2, "from": 1, "to": 2}`}, {"workload.clients", `"clients": {"leak_p": 0.1}`},
		{"workload.shift", `"shift": {"at": 5, "model": {"kind": "rcbr", "svr": 0.3}}`}, {"workload.renegotiate", `"renegotiate": true`},
		{"gateway.adaptive", `"estimator": "window", "memory": 5, "adaptive": true`}, {"gateway.flow_ttl", `"flow_ttl": 5`},
		{"gateway.stale_after", `"stale_after": 3`},
	} {
		at := `"hold": 300`
		if strings.HasPrefix(f.path, "gateway.") {
			at = `"pq": 0.01`
		}
		cases = append(cases, struct{ name, json, want string }{"continuous-" + f.path,
			cont(at, at+", "+f.field), f.path + ": not valid for a continuous workload"})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.json))
			if err == nil {
				t.Fatalf("Parse accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestPlanTargets pins what a plan resolves to against the theory
// functions it names, bit for bit: eq15 is the impulsive adjustment of
// eq. 15, robust is theory.PlanRobust's p_ce and memory T_m on an
// exponential estimator.
func TestPlanTargets(t *testing.T) {
	load := func(name string) armSpec {
		t.Helper()
		cfg, err := Load(filepath.Join("..", "..", "scenarios", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		spec, err := cfg.resolve("arms[0]", cfg.Arms[0])
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}
	eq15 := load("sqrt2-law-adjusted-pq1e-2")
	if want := theory.ImpulsiveAdjustedTarget(0.01); eq15.target != want || eq15.mode != estimator.ModeMemoryless {
		t.Errorf("eq15 resolved p_ce %v (%s), want %v (memoryless)", eq15.target, eq15.mode, want)
	}
	robust := load("robust-recipe")
	ts := traffic.NewRCBR(1, 0.3, 1).Stats()
	want, err := theory.PlanRobust(theory.System{Capacity: 100, Mu: ts.Mean, Sigma: ts.StdDev(), Th: 300, Tc: 1}, 0.01, theory.InvertIntegral)
	if err != nil {
		t.Fatal(err)
	}
	if robust.target != want.AdjustedPce || robust.gateway.Memory != want.MemoryTm || robust.mode != estimator.ModeExponential {
		t.Errorf("robust resolved p_ce %v, T_m %v (%s), want %v, %v (exponential)",
			robust.target, robust.gateway.Memory, robust.mode, want.AdjustedPce, want.MemoryTm)
	}
}

func TestParseDefaultsIdempotent(t *testing.T) {
	cfg, err := Parse([]byte(minimal()))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Target != TargetInProcess || cfg.Workload.Tick != 0.5 || cfg.Workload.TC != 1 ||
		cfg.Gateway.Estimator != "memoryless" || cfg.Check.Interval.Z != 1.96 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	// Marshal of the validated config re-parses to the identical value.
	out, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Parse(out)
	if err != nil {
		t.Fatalf("round-trip parse failed: %v\n%s", err, out)
	}
	if !reflect.DeepEqual(cfg, again) {
		t.Fatalf("round-trip drift:\nfirst  %+v\nsecond %+v", cfg, again)
	}
}

// TestEffectiveGateway pins the arm-override merge: an arm inherits the
// gateway's estimator always, and its memory and adaptive controller
// unless it overrides them; the two overrides apply independently.
func TestEffectiveGateway(t *testing.T) {
	cfg, err := Parse([]byte(`{
		"name": "t", "seeds": [1],
		"workload": {"kind": "churn", "lambda": 1, "hold": 5, "duration": 10, "svr": 0.3},
		"gateway": {"capacity": 10, "pq": 0.01, "estimator": "window", "memory": 5, "adaptive": true},
		"arms": [
			{"name": "inherit", "policy": "certainty-equivalent"},
			{"name": "fixed", "policy": "certainty-equivalent", "memory": 0.5, "adaptive": false},
			{"name": "longer", "policy": "certainty-equivalent", "memory": 10}
		],
		"check": {"kind": "interval", "interval": {"reference": "masking", "mode": "covers"}}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	inherit := cfg.effectiveGateway(cfg.Arms[0])
	if inherit.Estimator != "window" || inherit.Memory != 5 || !inherit.Adaptive {
		t.Fatalf("inherit arm drifted from the base spec: %+v", inherit)
	}
	fixed := cfg.effectiveGateway(cfg.Arms[1])
	if fixed.Estimator != "window" || fixed.Memory != 0.5 || fixed.Adaptive {
		t.Fatalf("fixed arm overrides not applied: %+v", fixed)
	}
	longer := cfg.effectiveGateway(cfg.Arms[2])
	if longer.Estimator != "window" || longer.Memory != 10 || !longer.Adaptive {
		t.Fatalf("a memory override must leave adaptive inherited: %+v", longer)
	}
}

// TestShippedScenariosParse locks the built-in suite to the strict decoder:
// every file under scenarios/ must load, and its marshaled form must
// re-parse to the same value.
func TestShippedScenariosParse(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 8 {
		t.Fatalf("expected at least 8 built-in scenarios, found %d", len(paths))
	}
	for _, p := range paths {
		cfg, err := Load(p)
		if err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		out, err := json.Marshal(cfg)
		if err != nil {
			t.Errorf("%s: marshal: %v", p, err)
			continue
		}
		again, err := Parse(out)
		if err != nil {
			t.Errorf("%s: round-trip parse: %v", p, err)
			continue
		}
		if !reflect.DeepEqual(cfg, again) {
			t.Errorf("%s: round-trip drift", p)
		}
	}
}

// goldenNames pins one enumeration's exact names in constant order and
// checks that its Parse reads the same table. The value past the list must
// be outside the table, so the list is complete.
func goldenNames[T interface {
	~int
	fmt.Stringer
}](t *testing.T, typ string, parse func(string) (T, error), golden ...string) {
	t.Helper()
	for i, want := range golden {
		v := T(i)
		if got, err := parse(want); v.String() != want || err != nil || got != v {
			t.Errorf("%s(%d) = %q, want %q; parses back to %v, %v", typ, i, v, want, got, err)
		}
	}
	if got, want := T(len(golden)).String(), fmt.Sprintf("%s(%d)", typ, len(golden)); got != want {
		t.Errorf("out-of-table %s renders %q, want %q", typ, got, want)
	}
}

// TestEnumRoundTrips pins the names of the five enumerations — scenario
// files and golden reports spell them — and the JSON codec over them.
func TestEnumRoundTrips(t *testing.T) {
	goldenNames(t, "Verdict", ParseVerdict, "Inconclusive", "Confirmed", "Refuted")
	goldenNames(t, "HypothesisKind", ParseHypothesisKind, "dominance", "interval", "invariant")
	goldenNames(t, "InvariantKind", ParseInvariantKind,
		"lifecycle", "expired-flows", "rejected-flows", "substrate-identity", "migrated-flows")
	goldenNames(t, "Metric", ParseMetric, "admitted", "storm-admitted", "served-p50", "served-p99")
	goldenNames(t, "IntervalMode", ParseIntervalMode, "covers", "at-most")

	// JSON round trip through struct fields: the text codec is what the
	// strict decoder and the reports use.
	in := Dominance{Metric: MetricStormAdmitted}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"metric":"storm-admitted","a":"","b":""}`; string(data) != want {
		t.Fatalf("Dominance encodes as %s, want %s", data, want)
	}
	var back Dominance
	if err := json.Unmarshal(data, &back); err != nil || back != in {
		t.Fatalf("Dominance JSON round trip: %+v, %v", back, err)
	}
	if err := json.Unmarshal([]byte(`{"metric":"sideways"}`), &back); err == nil ||
		!strings.Contains(err.Error(), `scenario: unknown metric "sideways" (want admitted, storm-admitted, served-p50 or served-p99)`) {
		t.Fatalf("unknown metric decoded: %v", err)
	}
}

// FuzzScenarioConfig throws arbitrary bytes at the strict decoder: Parse
// must never panic, and any config it accepts must survive a
// marshal -> re-parse round trip unchanged (defaults are idempotent).
func FuzzScenarioConfig(f *testing.F) {
	f.Add([]byte(minimal()))
	f.Add([]byte(`{"name": "x"}`))
	f.Add([]byte(`{"workload": {"kind": "impulsive", "replications": -1}}`))
	f.Add([]byte(`not json`))
	// Empty replication/arm axes must be rejected at decode time — an
	// accepted config with either would grade vacuously.
	f.Add([]byte(strings.Replace(minimal(), `"seeds": [1]`, `"seeds": []`, 1)))
	f.Add([]byte(`{"name": "x", "seeds": [1], "arms": []}`))
	f.Add([]byte(`{"name": "x", "seeds": []}`))
	// Cluster topology: valid fleet, and the degenerate cluster of one.
	f.Add([]byte(strings.Replace(minimal(),
		`"gateway": {"capacity": 10, "pq": 0.01}`,
		`"gateway": {"capacity": 10, "pq": 0.01}, "cluster": {"instances": 3, "drain_at": 5}`, 1)))
	f.Add([]byte(strings.Replace(minimal(),
		`"gateway": {"capacity": 10, "pq": 0.01}`,
		`"gateway": {"capacity": 10, "pq": 0.01}, "cluster": {"instances": 1}`, 1)))
	paths, _ := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	for _, p := range paths {
		if data, err := os.ReadFile(p); err == nil {
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := Parse(data)
		if err != nil {
			return
		}
		out, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("accepted config failed to marshal: %v", err)
		}
		again, err := Parse(out)
		if err != nil {
			t.Fatalf("marshaled form of an accepted config was rejected: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(cfg, again) {
			t.Fatalf("round-trip drift:\nin  %s\nout %s", data, out)
		}
	})
}
